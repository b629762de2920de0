//===- opt/ConstantFold.cpp - Constant folding and propagation -------------------===//

#include "analysis/ReachingDefs.h"
#include "ir/ConstEval.h"
#include "opt/Passes.h"

namespace dyc {
namespace opt {

using namespace ir;

namespace {

/// Returns true (and the value) if the use of \p R at the cursor's
/// position is provably the given constant: its unique reaching definition
/// is a ConstI/ConstF instruction.
bool knownConstant(const Function &F, const analysis::ReachingDefs &RD,
                   const analysis::ReachingDefs::Cursor &Cur, Reg R,
                   Word &Out) {
  int Site = Cur.uniqueReachingDef(R);
  if (Site < 0)
    return false;
  const analysis::DefSite &D = RD.defSites()[static_cast<size_t>(Site)];
  if (D.InstrIdx == analysis::ParamSite)
    return false; // function parameter, unknown at compile time
  const Instruction &Def = F.block(D.Block).Instrs[D.InstrIdx];
  if (Def.Op != Opcode::ConstI && Def.Op != Opcode::ConstF)
    return false;
  Out = Word{static_cast<uint64_t>(Def.Imm)};
  if (Def.Op == Opcode::ConstI)
    Out = Word::fromInt(Def.Imm);
  return true;
}

} // namespace

FoldResult runConstantFold(Function &F, const analysis::ReachingDefs &RD) {
  FoldResult Result;
  analysis::ReachingDefs::Cursor Cur(RD);

  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    BasicBlock &BB = F.block(B);
    Cur.enterBlock(B);
    // Folding keeps every instruction's Dst, so the cursor stays in step.
    for (size_t Idx = 0; Idx != BB.Instrs.size();
         Cur.advance(BB.Instrs[Idx++])) {
      Instruction &I = BB.Instrs[Idx];

      if (I.Op == Opcode::CondBr) {
        Word C;
        if (knownConstant(F, RD, Cur, I.Src1, C)) {
          BlockId Target = C.asInt() != 0 ? I.TrueSucc : I.FalseSucc;
          Instruction Br;
          Br.Op = Opcode::Br;
          Br.TrueSucc = Target;
          I = std::move(Br);
          Result.Changed = Result.FoldedBranch = true;
        }
        continue;
      }

      if (!isEvaluableOp(I.Op) || !I.definesReg())
        continue;

      Word A, Bv;
      if (!knownConstant(F, RD, Cur, I.Src1, A))
        continue;
      if (!isUnaryOp(I.Op) && !knownConstant(F, RD, Cur, I.Src2, Bv))
        continue;

      Word Out;
      if (!evalPureOp(I.Op, A, Bv, Out))
        continue;

      Instruction C;
      C.Op = I.Ty == Type::F64 ? Opcode::ConstF : Opcode::ConstI;
      C.Ty = I.Ty;
      C.Dst = I.Dst;
      C.Imm = I.Ty == Type::F64 ? static_cast<int64_t>(Out.Bits)
                                : Out.asInt();
      I = std::move(C);
      Result.Changed = true;
    }
  }
  return Result;
}

} // namespace opt
} // namespace dyc
