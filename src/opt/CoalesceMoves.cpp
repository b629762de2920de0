//===- opt/CoalesceMoves.cpp - Copy coalescing ----------------------------------===//
//
// Eliminates the `t = op ...; v = mov t` pattern the AST lowering produces
// for assignments, by renaming the defining instruction's destination to
// v. Classic copy coalescing; it benefits the static code and, more
// importantly, keeps the run-time specializer's accumulator patterns
// (`sum = sum + x`) as single instructions so zero/copy propagation can
// elide them entirely.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

namespace dyc {
namespace opt {

using namespace ir;

bool runCoalesceMoves(Function &F, const analysis::Liveness &LV) {
  // Count total uses of each register across the function (annotation
  // variable lists count as uses).
  std::vector<unsigned> UseCount(F.numRegs(), 0);
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Instrs)
      I.forEachUse([&](Reg U) { ++UseCount[U]; });

  bool Changed = false;
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    BasicBlock &BB = F.block(B);
    for (size_t MovIdx = 0; MovIdx != BB.Instrs.size(); ++MovIdx) {
      Instruction &Mv = BB.Instrs[MovIdx];
      if (Mv.Op != Opcode::Mov || Mv.Dst == Mv.Src1)
        continue;
      Reg T = Mv.Src1;
      Reg V = Mv.Dst;
      if (UseCount[T] != 1)
        continue; // the mov must be t's only use
      if (LV.liveOut(B).test(T))
        continue;
      // Find t's definition earlier in this block.
      size_t DefIdx = SIZE_MAX;
      for (size_t I = MovIdx; I-- > 0;) {
        if (BB.Instrs[I].definesReg() && BB.Instrs[I].Dst == T) {
          DefIdx = I;
          break;
        }
      }
      if (DefIdx == SIZE_MAX)
        continue;
      // v must be untouched strictly between the def and the mov.
      bool Blocked = false;
      for (size_t I = DefIdx + 1; I != MovIdx && !Blocked; ++I) {
        const Instruction &Mid = BB.Instrs[I];
        if (Mid.definesReg() && Mid.Dst == V)
          Blocked = true;
        Mid.forEachUse([&](Reg U) { Blocked |= U == V; });
      }
      if (Blocked)
        continue;
      // Types must agree (they do, by the mov's verification).
      if (F.regType(T) != F.regType(V))
        continue;
      BB.Instrs[DefIdx].Dst = V;
      // Replace the mov with a self-move; DCE removes it.
      Mv.Src1 = V;
      Changed = true;
    }
  }
  return Changed;
}

} // namespace opt
} // namespace dyc
