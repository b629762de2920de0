//===- opt/CopyPropagation.cpp ------------------------------------------------------===//

#include "opt/Passes.h"

namespace dyc {
namespace opt {

using namespace ir;

namespace {

/// Collects every register named by a MakeStatic/MakeDynamic annotation.
/// Uses of these variables are never rewritten: replacing a use of an
/// annotated variable with its copy source would bypass the promotion the
/// programmer asked for.
BitVector annotatedRegs(const Function &F) {
  BitVector Out(F.numRegs());
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Instrs)
      if (I.isAnnotation())
        for (Reg R : I.AnnotVars)
          Out.set(R);
  return Out;
}

/// Rewrites \p I's register uses via \p Rewrite (which returns the
/// replacement for a reg, possibly itself). Annotation variable lists are
/// left untouched.
template <typename Fn> bool rewriteUses(Instruction &I, Fn Rewrite) {
  bool Changed = false;
  auto Do = [&](Reg &R) {
    if (R == NoReg)
      return;
    Reg N = Rewrite(R);
    if (N != R) {
      R = N;
      Changed = true;
    }
  };
  switch (I.Op) {
  case Opcode::ConstI:
  case Opcode::ConstF:
  case Opcode::Br:
  case Opcode::MakeStatic:
  case Opcode::MakeDynamic:
    return false;
  case Opcode::Call:
  case Opcode::CallExt:
    for (Reg &A : I.Args)
      Do(A);
    return Changed;
  case Opcode::Store:
    Do(I.Src1);
    Do(I.Src2);
    return Changed;
  case Opcode::Ret:
  case Opcode::CondBr:
    Do(I.Src1);
    return Changed;
  default:
    Do(I.Src1);
    Do(I.Src2);
    return Changed;
  }
}

} // namespace

bool runCopyPropagation(Function &F, const analysis::ReachingDefs &RD) {
  bool Changed = false;
  BitVector Annotated = annotatedRegs(F);

  // --- Block-local copy propagation -----------------------------------------
  std::vector<Reg> CopyOf(F.numRegs(), NoReg); // dst -> src at this point
  std::vector<Reg> Touched; // dsts given a source in this block
  auto Chase = [&](Reg R) {
    return Annotated.test(R) || CopyOf[R] == NoReg ? R : CopyOf[R];
  };
  for (BasicBlock &BB : F.Blocks) {
    for (Instruction &I : BB.Instrs) {
      Changed |= rewriteUses(I, Chase);
      if (I.definesReg()) {
        // Kill facts involving the redefined register.
        CopyOf[I.Dst] = NoReg;
        for (Reg D : Touched)
          if (CopyOf[D] == I.Dst)
            CopyOf[D] = NoReg;
        if (I.Op == Opcode::Mov && I.Src1 != I.Dst &&
            !Annotated.test(I.Dst)) {
          CopyOf[I.Dst] = Chase(I.Src1);
          Touched.push_back(I.Dst);
        }
      }
      if (I.Op == Opcode::MakeStatic)
        for (Reg R : I.AnnotVars)
          CopyOf[R] = NoReg;
    }
    for (Reg D : Touched)
      CopyOf[D] = NoReg;
    Touched.clear();
  }

  // --- Global single-definition copy propagation ----------------------------
  // The block-local phase rewrote only uses, so RD still describes F.
  analysis::ReachingDefs::Cursor Cur(RD);
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    Cur.enterBlock(B);
    for (Instruction &I : F.block(B).Instrs) {
      auto Rewrite = [&](Reg R) {
        if (Annotated.test(R))
          return R;
        int Site = Cur.uniqueReachingDef(R);
        if (Site < 0)
          return R;
        const analysis::DefSite &D =
            RD.defSites()[static_cast<size_t>(Site)];
        if (D.InstrIdx == analysis::ParamSite)
          return R;
        const Instruction &Def = F.block(D.Block).Instrs[D.InstrIdx];
        if (Def.Op != Opcode::Mov)
          return R;
        // The source must have a single definition (a parameter's
        // pseudo-def counts).
        Reg S = Def.Src1;
        if (S == R || RD.sitesOf(S).size() != 1 || Annotated.test(S))
          return R;
        return S;
      };
      Changed |= rewriteUses(I, Rewrite);
      Cur.advance(I);
    }
  }
  return Changed;
}

} // namespace opt
} // namespace dyc
