//===- perfbench/src/Pipeline.h - DycContext, with spans when traced -------===//
//
// With tracing off these are the plain public calls (DycContext::compile,
// buildDynamic, buildStatic). With tracing on they replay the same steps
// through the public functions DycContext itself calls, each step under a
// span: compileMiniC; normalizeAnnotations, runStaticOptimizations and
// verifyModule; analyzeFunction; bindExternals and lowerModule;
// buildGenExt and addRegion. checkReplayParity() asserts the replay
// cannot drift from DycContext.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Trace.h"

#include "core/DycContext.h"
#include "workloads/Workload.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// IR sizes and BTA contexts seen while building one module (filled only
/// by the traced path, which counts them outside its layer spans).
struct ModuleSizes {
  uint64_t FrontendInstrs = 0; ///< IR instructions after the front end
  uint64_t OptInstrs = 0;      ///< IR instructions after optimization
  uint64_t Contexts = 0;       ///< BTA contexts over all functions
};

bool compile(dyc::core::DycContext &Ctx, const std::string &Source,
             Tracer &T, std::vector<std::string> &Errors,
             ModuleSizes *Sizes = nullptr);
std::unique_ptr<dyc::core::Executable>
buildDynamic(const dyc::core::DycContext &Ctx, Tracer &T,
             ModuleSizes *Sizes = nullptr);
std::unique_ptr<dyc::core::Executable>
buildStatic(const dyc::core::DycContext &Ctx, Tracer &T);

/// Runs \p Func once under a "vm.first_run" span and returns its result.
/// On a dynamic build, the specializer's host time during the call
/// (RegionExecutionCore::specializeHostSeconds, which includes a one-time
/// emit-plan build) is added to \p SpecNs and recorded as a
/// "runtime.first_spec" child span.
dyc::Word runFirst(dyc::core::Executable &E, int Func,
                   const std::vector<dyc::Word> &Args, Tracer &T,
                   double *SpecNs = nullptr);

/// Counters summed over every region of a dynamic build.
struct RegionTotals {
  uint64_t InstrsGenerated = 0;
  uint64_t PlanBuilds = 0;
  uint64_t PlanBytes = 0;
  uint64_t SpecRuns = 0;
  uint64_t Dispatches = 0;
  uint64_t CacheHits = 0;
  uint64_t Evictions = 0;
};
RegionTotals regionTotals(const dyc::core::Executable &E);

/// True when the validated output ranges of two machines agree.
bool sameOutputs(const dyc::vm::VM &A, const dyc::vm::VM &B,
                 const dyc::workloads::WorkloadSetup &S);

/// Builds \p W through DycContext and through the traced replay, runs the
/// region once on each, and compares results, output ranges, simulated
/// counters, the optimized module text and every region's
/// disassembleRegion byte for byte. Returns false on any difference.
bool checkReplayParity(const dyc::workloads::Workload &W);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
