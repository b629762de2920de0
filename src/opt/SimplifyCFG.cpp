//===- opt/SimplifyCFG.cpp -------------------------------------------------------===//

#include "analysis/CFG.h"
#include "opt/Passes.h"

namespace dyc {
namespace opt {

using namespace ir;

bool runSimplifyCFG(Function &F) {
  bool Changed = false;

  // Fold condbr with identical targets.
  for (BasicBlock &BB : F.Blocks) {
    if (BB.Instrs.empty())
      continue;
    Instruction &T = BB.Instrs.back();
    if (T.Op == Opcode::CondBr && T.TrueSucc == T.FalseSucc) {
      Instruction Br;
      Br.Op = Opcode::Br;
      Br.TrueSucc = T.TrueSucc;
      T = std::move(Br);
      Changed = true;
    }
  }

  // Jump threading: resolve chains of blocks that contain only `br X`.
  size_t N = F.numBlocks();
  auto Resolve = [&](BlockId B) {
    BlockId Cur = B;
    // Bounded walk guards against (unreachable) self-loop stubs.
    for (size_t Hops = 0; Hops != N; ++Hops) {
      const BasicBlock &BB = F.block(Cur);
      if (BB.Instrs.size() != 1 || BB.Instrs.front().Op != Opcode::Br)
        return Cur;
      BlockId Next = BB.Instrs.front().TrueSucc;
      if (Next == Cur)
        return Cur;
      Cur = Next;
    }
    return Cur;
  };
  for (BasicBlock &BB : F.Blocks) {
    if (BB.Instrs.empty())
      continue;
    Instruction &T = BB.Instrs.back();
    if (T.Op == Opcode::Br) {
      BlockId R = Resolve(T.TrueSucc);
      if (R != T.TrueSucc) {
        T.TrueSucc = R;
        Changed = true;
      }
    } else if (T.Op == Opcode::CondBr) {
      BlockId RT = Resolve(T.TrueSucc);
      BlockId RF = Resolve(T.FalseSucc);
      if (RT != T.TrueSucc || RF != T.FalseSucc) {
        T.TrueSucc = RT;
        T.FalseSucc = RF;
        Changed = true;
      }
      if (T.TrueSucc == T.FalseSucc) {
        Instruction Br;
        Br.Op = Opcode::Br;
        Br.TrueSucc = T.TrueSucc;
        T = std::move(Br);
      }
    }
  }

  // Stub out unreachable blocks (self-loop terminator keeps block ids
  // stable without retaining dead code).
  analysis::CFG G(F);
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    if (G.isReachable(B))
      continue;
    BasicBlock &BB = F.block(B);
    bool AlreadyStub = BB.Instrs.size() == 1 &&
                       BB.Instrs.front().Op == Opcode::Br &&
                       BB.Instrs.front().TrueSucc == B;
    if (AlreadyStub)
      continue;
    Instruction Self;
    Self.Op = Opcode::Br;
    Self.TrueSucc = B;
    BB.Instrs.clear();
    BB.Instrs.push_back(std::move(Self));
    Changed = true;
  }

  return Changed;
}

} // namespace opt
} // namespace dyc
