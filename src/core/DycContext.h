//===- core/DycContext.h - Public API of the DyC reproduction --------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level entry point a downstream user programs against:
///
/// \code
///   dyc::core::DycContext Ctx;
///   std::vector<std::string> Errors;
///   Ctx.compile(MiniCSource, Errors);                 // static pipeline
///   auto Static = Ctx.buildStatic();                  // baseline
///   auto Dynamic = Ctx.buildDynamic(dyc::OptFlags{}); // DyC
///   Word R = Dynamic->Machine->run(Idx, Args);        // runs + specializes
/// \endcode
///
/// compile() runs the full static side of Figure 1: parse, lower,
/// normalize annotations, traditional optimizations, verification.
/// buildDynamic() runs BTA, the dynamic-compiler generator, and wires a
/// DycRuntime into a fresh VM.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_CORE_DYCCONTEXT_H
#define DYC_CORE_DYCCONTEXT_H

#include "bta/BTAnalysis.h"
#include "cogen/CompilerGenerator.h"
#include "runtime/Specializer.h"
#include "server/SpecServer.h"
#include "speculate/SpeculativeRuntime.h"
#include "vm/VM.h"

#include <memory>
#include <string>
#include <vector>

namespace dyc {
namespace core {

/// One runnable configuration of a compiled module. Owns the program, the
/// machine, and (for dynamic builds) the DyC run-time. Not movable: the
/// run-time holds references into the program.
struct Executable {
  vm::Program Prog;
  std::unique_ptr<runtime::DycRuntime> RT; ///< null for static builds
  /// The speculative run-time (buildSpeculative only; declared after RT
  /// and before Machine so destruction runs Machine, then Spec, then the
  /// program it lowered into).
  std::unique_ptr<speculate::SpeculativeRuntime> Spec;
  std::unique_ptr<vm::VM> Machine;
  std::vector<cogen::LoweredFunction> Lowered;
  /// Function index -> annotated-region ordinal (-1 if unannotated).
  std::vector<int> AnnotatedOrdinal;

  Executable() = default;
  Executable(const Executable &) = delete;
  Executable &operator=(const Executable &) = delete;

  int findFunction(const std::string &Name) const {
    return Prog.findFunction(Name);
  }

  /// Region ordinal of function \p Name, or -1.
  int regionOrdinalOf(const std::string &Name) const;
};

/// Compilation context: owns the optimized module.
class DycContext {
public:
  /// Parses, lowers, normalizes, optimizes, and verifies \p Source.
  /// Returns false (with messages in \p Errors) on failure.
  bool compile(const std::string &Source, std::vector<std::string> &Errors);

  const ir::Module &module() const { return M; }
  ir::Module &moduleMutable() { return M; }

  /// Builds the statically compiled configuration (annotations ignored).
  std::unique_ptr<Executable>
  buildStatic(const vm::CostModel &CM = vm::CostModel(),
              const vm::ICacheConfig &IC = vm::ICacheConfig()) const;

  /// Builds the dynamically compiled configuration under \p Flags.
  /// \p Budget bounds resident generated code per region (zeros mean
  /// unbounded, the paper's behavior).
  std::unique_ptr<Executable>
  buildDynamic(const OptFlags &Flags = OptFlags(),
               const vm::CostModel &CM = vm::CostModel(),
               const vm::ICacheConfig &IC = vm::ICacheConfig(),
               runtime::ChainBudget Budget = {}) const;

  /// Builds the speculative configuration: annotations are stripped and
  /// the run-time re-discovers them online (profile -> promote -> guard
  /// -> deopt -> demote). With \p Policy.Enabled false this behaves like
  /// buildStatic plus an idle runtime.
  std::unique_ptr<Executable>
  buildSpeculative(const speculate::SpeculationPolicy &Policy =
                       speculate::SpeculationPolicy(),
                   const OptFlags &Flags = OptFlags(),
                   const vm::CostModel &CM = vm::CostModel(),
                   const vm::ICacheConfig &IC = vm::ICacheConfig(),
                   runtime::ChainBudget Budget = {}) const;

  /// Builds the concurrent specialization service over this module. The
  /// context must outlive the server (the server keeps a reference to the
  /// module, as Executable's runtime does).
  std::unique_ptr<server::SpecServer>
  buildServer(const OptFlags &Flags = OptFlags(),
              server::ServerConfig Cfg = server::ServerConfig()) const;

  /// Builds the tiered specialization service: buildServer with
  /// Flags.Tier.Enabled forced on and the miss policy forced to Fallback
  /// (tiered dispatch never waits on compilation; synchronous installs,
  /// if wanted, come from Flags.Tier.SyncInstall).
  std::unique_ptr<server::SpecServer>
  buildTiered(const OptFlags &Flags = OptFlags(),
              server::ServerConfig Cfg = server::ServerConfig()) const;

  /// Builds the multi-tenant specialization service: buildServer with
  /// tiering forced off — per-tenant heat is not modeled, so the tiering
  /// controller's server-wide heat would couple the tenants. Every server
  /// serves tenant views over the cross-tenant chain store; make
  /// per-tenant clients with SpecServer::makeClientVM(TenantId).
  std::unique_ptr<server::SpecServer>
  buildMultiTenant(const OptFlags &Flags = OptFlags(),
                   server::ServerConfig Cfg = server::ServerConfig()) const;

  /// Runs BTA only (no code generation); one RegionInfo per function.
  std::vector<bta::RegionInfo> analyze(const OptFlags &Flags) const;

private:
  ir::Module M;
};

} // namespace core
} // namespace dyc

#endif // DYC_CORE_DYCCONTEXT_H
