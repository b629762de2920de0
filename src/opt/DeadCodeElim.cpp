//===- opt/DeadCodeElim.cpp -----------------------------------------------------===//

#include "opt/Passes.h"

namespace dyc {
namespace opt {

using namespace ir;

namespace {

/// True if deleting \p I (when its result is dead) is safe.
bool removableWhenDead(const Instruction &I, const Module &M) {
  if (!I.definesReg())
    return false;
  switch (I.Op) {
  case Opcode::Store:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
  case Opcode::MakeStatic:
  case Opcode::MakeDynamic:
    return false;
  case Opcode::Call:
    return M.function(I.Callee).Pure;
  case Opcode::CallExt:
    return M.external(I.Callee).Pure;
  default:
    return true;
  }
}

} // namespace

bool runDeadCodeElim(Function &F, const Module &M,
                     const analysis::Liveness &LV) {
  bool Changed = false;
  BitVector Live(F.numRegs());
  std::vector<uint8_t> Dead;

  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    BasicBlock &BB = F.block(B);
    Live = LV.liveOut(B);
    // Backward walk; mark-and-sweep within the block.
    Dead.assign(BB.Instrs.size(), 0);
    bool BlockChanged = false;
    for (size_t Idx = BB.Instrs.size(); Idx-- > 0;) {
      const Instruction &I = BB.Instrs[Idx];
      bool IsDead = removableWhenDead(I, M) && !Live.test(I.Dst);
      // Self-moves are dead regardless of liveness.
      if (I.Op == Opcode::Mov && I.Src1 == I.Dst)
        IsDead = true;
      if (IsDead) {
        Dead[Idx] = 1;
        BlockChanged = true;
        continue; // its uses do not become live
      }
      if (I.definesReg())
        Live.reset(I.Dst);
      I.forEachUse([&](Reg U) { Live.set(U); });
    }
    if (!BlockChanged)
      continue;
    Changed = true;
    // Compact in place. An instruction is never moved onto itself:
    // self-move-assignment leaves a std::vector member (Args, AnnotVars)
    // empty in libstdc++.
    size_t Kept = 0;
    for (size_t Idx = 0; Idx != BB.Instrs.size(); ++Idx) {
      if (Dead[Idx])
        continue;
      if (Kept != Idx)
        BB.Instrs[Kept] = std::move(BB.Instrs[Idx]);
      ++Kept;
    }
    BB.Instrs.erase(BB.Instrs.begin() + static_cast<ptrdiff_t>(Kept),
                    BB.Instrs.end());
  }
  return Changed;
}

} // namespace opt
} // namespace dyc
