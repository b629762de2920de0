//===- cogen/GenExt.h - Generating extensions -----------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of the dynamic-compiler generator: one GenExtFunction per
/// annotated function. Each BTA context is lowered into a straight-line
/// array of set-up operations with embedded emit directives (the paper's
/// "emit code sequences inserted into the set-up code", section 2.1). The
/// run-time specializer executes these arrays directly; it consults no IR
/// and performs no analysis — all planning (hole positions, zero/copy
/// propagation candidacy, deferability for dead-assignment elimination,
/// dispatch descriptors, exit resume points) happened here, at static
/// compile time.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_COGEN_GENEXT_H
#define DYC_COGEN_GENEXT_H

#include "bta/BindingTime.h"
#include "vm/Bytecode.h"

#include <vector>

namespace dyc {
namespace cogen {

/// One operand of a template instruction: either a run-time register (a
/// hole is unnecessary) or a static register whose specialize-time value is
/// instantiated at emit time (a hole).
struct Operand {
  ir::Reg R = ir::NoReg;
  bool Static = false;
};

/// One set-up operation.
struct SetupOp {
  enum Kind : uint8_t {
    EvalConst, ///< state[Dst] <- Imm (bit pattern; Ty selects int/float)
    Eval,      ///< state[Dst] <- Op(state[A], state[B]) — static computation
    EvalLoad,  ///< state[Dst] <- Mem[state[A] + Imm] — static load (`@`)
    EvalCall,  ///< state[Dst] <- call at specialize time (memoized)
    EmitInstr, ///< emit one dynamic instruction (with holes filled)
  } K = Eval;

  ir::Opcode Op = ir::Opcode::Mov; ///< semantic operation (Eval/EmitInstr)
  ir::Type Ty = ir::Type::I64;     ///< result type
  ir::Reg Dst = ir::NoReg;
  Operand A, B;
  int64_t Imm = 0;

  // Calls.
  int32_t Callee = -1;
  bool IsExt = false;
  std::vector<Operand> Args;

  // --- Static plans for the staged run-time optimizations ------------------
  /// Zero/copy-propagation candidate: exactly one operand is static, so the
  /// emitter checks its value for 0/1 at emit time (section 2.2.7).
  bool ZcpCand = false;
  /// Strength-reduction candidate: integer mul/div/rem with one static
  /// operand (power-of-two rewrites).
  bool SrCand = false;
  /// The instruction is pure and its result is not live out of the block,
  /// so its emission may be deferred; if nothing ever reads the result, the
  /// instruction was a dead assignment and is never emitted.
  bool Deferrable = false;
};

/// How a context's terminator is specialized.
struct GenTerm {
  enum Kind : uint8_t { Ret, Br, CondBr } K = Ret;
  Operand RetVal;  ///< Ret (R == NoReg for void returns)
  Operand Cond;    ///< CondBr; Cond.Static means the branch folds away
  bta::Edge TrueE, FalseE;
};

/// One lowered context.
struct GenBlock {
  uint32_t CtxId = 0;
  std::vector<SetupOp> Ops;
  GenTerm Term;
  /// The context's StaticIn registers in ascending order: the values, after
  /// the context id, that make up its memoization key — for its own
  /// placements and for every edge that targets it.
  std::vector<uint32_t> KeyRegs;
};

/// The generating extension for one annotated function.
struct GenExtFunction {
  int FuncIdx = -1;
  bta::RegionInfo Region;
  std::vector<GenBlock> Blocks; ///< index == context id

  // Frame layout facts shared with the lowered static code.
  uint32_t NumRegs = 0;    ///< total frame registers (incl. staging/scratch)
  uint32_t StageBase = 0;  ///< contiguous call-argument staging area
  uint32_t Scratch0 = 0;   ///< emitter scratch registers
  uint32_t Scratch1 = 0;

  /// Block id -> PC in the function's static code object (exit resumes).
  std::vector<uint32_t> BlockPC;

  /// Types of the function's virtual registers (so the emitter picks FMov
  /// vs. Mov and ConstF vs. ConstI without consulting the IR).
  std::vector<ir::Type> RegTypes;
};

} // namespace cogen
} // namespace dyc

#endif // DYC_COGEN_GENEXT_H
