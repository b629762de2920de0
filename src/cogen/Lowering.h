//===- cogen/Lowering.h - IR-to-bytecode lowering -------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers IR functions to VM bytecode. Two modes:
///
///  * static compile (annotations ignored) — the baseline every
///    measurement compares against ("compiled by ignoring the annotations",
///    paper section 3.3), and
///  * dynamic compile — identical, except each make_static block becomes
///    an EnterRegion trap (its Imm encodes annotated-function ordinal and
///    native-entry promotion id).
///
/// Lowering performs the immediate-operand selection a real compiler's
/// code generator would: block-local constants are folded into
/// reg-immediate instruction forms, and constant materializations whose
/// only uses were folded are dropped.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_COGEN_LOWERING_H
#define DYC_COGEN_LOWERING_H

#include "bta/BindingTime.h"
#include "ir/Module.h"
#include "vm/VM.h"

#include <vector>

namespace dyc {
namespace cogen {

/// Per-function results of lowering.
struct LoweredFunction {
  uint32_t VMIndex = 0;
  std::vector<uint32_t> BlockPC; ///< IR block id -> bytecode offset
  uint32_t StageBase = 0;
  uint32_t Scratch0 = 0;
  uint32_t Scratch1 = 0;
};

/// Lowers every function of \p M into \p Prog (in module order, so module
/// function indices equal VM function indices; the same holds for
/// externals, which the caller registers separately).
///
/// \p WithRegions selects the dynamic compile; \p Regions (parallel to the
/// module's functions; entries for unannotated functions have empty
/// Contexts) supplies native-entry promotion ids. \p AnnotatedOrdinal maps
/// function index -> dense ordinal of annotated functions, used in the
/// EnterRegion Imm encoding (ordinal << 16 | promoId).
std::vector<LoweredFunction>
lowerModule(const ir::Module &M, vm::Program &Prog, bool WithRegions,
            const std::vector<bta::RegionInfo> &Regions,
            const std::vector<int> &AnnotatedOrdinal);

/// Lowers one function into \p Prog *without* the module-mirror index
/// invariant — the speculative run-time appends synthesized twins to a
/// program that already holds the whole module. \p Region may be null (or
/// have empty Contexts) for a plain static lowering; \p Ordinal is the
/// region ordinal encoded into EnterRegion traps when \p WithRegions.
/// \p CodeName, if nonempty, overrides the emitted code object's name (the
/// IR function keeps its own name, which region disassembly uses).
LoweredFunction lowerFunction(const ir::Function &F, const ir::Module &M,
                              vm::Program &Prog, bool WithRegions,
                              const bta::RegionInfo *Region, int Ordinal,
                              const std::string &CodeName = "");

/// Checks that every external \p M declares names a host function of the
/// same arity and return type; appends one error per bad declaration to
/// \p Errors and returns false if there is any. DycContext::compile
/// reports these, so bindExternals may assume them.
bool checkExternals(const ir::Module &M, std::vector<std::string> &Errors);

/// Registers the module's externals into \p Prog from the standard
/// library, asserting that each one exists with the declared arity and
/// return type (checkExternals) and that indices line up.
void bindExternals(const ir::Module &M, vm::Program &Prog);

/// The IR-to-VM encoding tables, expanded from the op table and shared by
/// this lowering and the run-time emitter (runtime/Deferral.h), so both
/// encode an operation alike.
vm::Op vmOpOf(ir::Opcode Op);    ///< reg-reg form; fatals if none
vm::Op immFormOf(ir::Opcode Op); ///< reg-immediate form; vm::Op::Halt if none
bool isCommutativeOpcode(ir::Opcode Op);
/// Mirrors an asymmetric comparison so a constant first operand can move
/// to the right: (c < x) == (x > c). Lt<->Gt, Le<->Ge; else \p Op.
ir::Opcode mirrorCompare(ir::Opcode Op);

} // namespace cogen
} // namespace dyc

#endif // DYC_COGEN_LOWERING_H
