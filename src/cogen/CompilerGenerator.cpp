//===- cogen/CompilerGenerator.cpp -------------------------------------------------===//

#include "cogen/CompilerGenerator.h"

#include "analysis/CFG.h"
#include "analysis/Liveness.h"
#include "ir/ConstEval.h"

namespace dyc {
namespace cogen {

using namespace ir;

namespace {

/// Zero/copy-propagation candidacy (section 2.2.7): one static operand on
/// an operation a special value could reduce to a move or clear.
bool zcpCandidate(Opcode Op, bool AStatic, bool BStatic) {
  if (AStatic == BStatic)
    return false;
  switch (Op) {
  case Opcode::Mul: case Opcode::FMul:
  case Opcode::Add: case Opcode::FAdd:
    return true;
  case Opcode::Sub: case Opcode::FSub:
  case Opcode::Div: case Opcode::FDiv:
    return BStatic; // x-0, x/1; (0-x, 1/x do not reduce to moves)
  default:
    return false;
  }
}

/// Strength-reduction candidacy: integer multiply/divide/remainder with a
/// single static operand.
bool srCandidate(Opcode Op, bool AStatic, bool BStatic) {
  if (AStatic == BStatic)
    return false;
  switch (Op) {
  case Opcode::Mul:
    return true;
  case Opcode::Div: case Opcode::Rem:
    return BStatic;
  default:
    return false;
  }
}

/// True for instructions whose emission may be deferred (pure value
/// producers); combined with "result not live out of the block", this is
/// the static plan for dynamic dead-assignment elimination.
bool deferrableOp(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Load:
    return true; // plain (dynamic) loads; static loads are set-up ops
  case Opcode::ConstI:
  case Opcode::ConstF:
    return true;
  default:
    return isEvaluableOp(I.Op);
  }
}

} // namespace

GenExtFunction buildGenExt(const Function &F, const Module &M,
                           bta::RegionInfo Region, const LoweredFunction &LF,
                           const OptFlags &Flags) {
  GenExtFunction GX;
  GX.FuncIdx = Region.FuncIdx;
  GX.StageBase = LF.StageBase;
  GX.Scratch0 = LF.Scratch0;
  GX.Scratch1 = LF.Scratch1;
  GX.NumRegs = LF.Scratch1 + 1;
  GX.BlockPC = LF.BlockPC;
  GX.RegTypes.reserve(F.numRegs());
  for (Reg R = 0; R != F.numRegs(); ++R)
    GX.RegTypes.push_back(F.regType(R));

  analysis::CFG G(F);
  analysis::Liveness LV(F, G);

  for (const bta::Context &C : Region.Contexts) {
    GenBlock GB;
    GB.CtxId = C.Id;
    const BasicBlock &BB = F.block(C.Block);
    const BitVector &LiveOut = LV.liveOut(C.Block);

    for (size_t Idx = 0; Idx != BB.Instrs.size(); ++Idx) {
      const Instruction &I = BB.Instrs[Idx];
      const BitVector &Pre = C.PreSets[Idx];
      auto Opnd = [&](Reg R) {
        return Operand{R, R != NoReg && Pre.test(R)};
      };

      if (I.isAnnotation()) {
        // A make_dynamic demotion mid-block must materialize the demoted
        // variables' values into their run-time registers if still used.
        if (I.Op == Opcode::MakeDynamic) {
          BitVector LiveAfter = LV.liveBefore(F, C.Block, Idx + 1);
          for (Reg V : I.AnnotVars) {
            if (!Pre.test(V) || !LiveAfter.test(V))
              continue;
            SetupOp Mat;
            Mat.K = SetupOp::EmitInstr;
            Mat.Op = Opcode::Mov;
            Mat.Ty = F.regType(V);
            Mat.Dst = V;
            Mat.A = Operand{V, /*Static=*/true};
            GB.Ops.push_back(std::move(Mat));
          }
        }
        continue;
      }

      if (I.isTerminator()) {
        GenTerm T;
        switch (I.Op) {
        case Opcode::Ret:
          T.K = GenTerm::Ret;
          T.RetVal = Opnd(I.Src1);
          break;
        case Opcode::Br:
          T.K = GenTerm::Br;
          T.TrueE = C.TrueEdge;
          break;
        case Opcode::CondBr:
          T.K = GenTerm::CondBr;
          T.Cond = Operand{I.Src1, C.TermCondStatic};
          T.TrueE = C.TrueEdge;
          T.FalseE = C.FalseEdge;
          break;
        default:
          fatal("unexpected terminator in cogen");
        }
        GB.Term = T;
        break; // terminator is last
      }

      SetupOp Op;
      Op.Op = I.Op;
      Op.Ty = I.Ty;
      Op.Dst = I.Dst;
      Op.Imm = I.Imm;

      if (C.InstIsStatic[Idx]) {
        switch (I.Op) {
        case Opcode::ConstI:
          Op.K = SetupOp::EvalConst;
          Op.Imm = static_cast<int64_t>(Word::fromInt(I.Imm).Bits);
          break;
        case Opcode::ConstF:
          Op.K = SetupOp::EvalConst;
          break;
        case Opcode::Load:
          Op.K = SetupOp::EvalLoad;
          Op.A = Opnd(I.Src1);
          break;
        case Opcode::Call:
        case Opcode::CallExt:
          Op.K = SetupOp::EvalCall;
          Op.Callee = I.Callee;
          Op.IsExt = I.Op == Opcode::CallExt;
          for (Reg A : I.Args)
            Op.Args.push_back(Opnd(A));
          break;
        default:
          assert(isEvaluableOp(I.Op) && "static op is not evaluable");
          Op.K = SetupOp::Eval;
          Op.A = Opnd(I.Src1);
          if (!isUnaryOp(I.Op))
            Op.B = Opnd(I.Src2);
          break;
        }
      } else {
        Op.K = SetupOp::EmitInstr;
        switch (I.Op) {
        case Opcode::Store:
          Op.A = Opnd(I.Src1); // address
          Op.B = Opnd(I.Src2); // value
          break;
        case Opcode::Call:
        case Opcode::CallExt:
          Op.Callee = I.Callee;
          Op.IsExt = I.Op == Opcode::CallExt;
          for (Reg A : I.Args)
            Op.Args.push_back(Opnd(A));
          break;
        default:
          Op.A = Opnd(I.Src1);
          if (!isUnaryOp(I.Op) && I.Src2 != NoReg)
            Op.B = Opnd(I.Src2);
          break;
        }
        Op.ZcpCand = zcpCandidate(I.Op, Op.A.Static, Op.B.Static);
        Op.SrCand = srCandidate(I.Op, Op.A.Static, Op.B.Static);
        Op.Deferrable = Flags.DeadAssignmentElimination &&
                        deferrableOp(I) && I.Dst != NoReg &&
                        !LiveOut.test(I.Dst);
      }
      GB.Ops.push_back(std::move(Op));
    }

    GX.Blocks.push_back(std::move(GB));
  }

  GX.Region = std::move(Region);
  return GX;
}

std::string printGenExt(const GenExtFunction &GX, const Function &F) {
  std::string Out = formatString(
      "generating extension for '%s': %zu contexts\n", F.Name.c_str(),
      GX.Blocks.size());
  auto OpndStr = [&](const Operand &O) {
    if (O.R == NoReg)
      return std::string("-");
    return (O.Static ? "$" : "") + F.regName(O.R);
  };
  for (const GenBlock &GB : GX.Blocks) {
    Out += formatString("ctx%u:\n", GB.CtxId);
    for (const SetupOp &Op : GB.Ops) {
      const char *K = Op.K == SetupOp::EvalConst  ? "const"
                      : Op.K == SetupOp::Eval     ? "eval "
                      : Op.K == SetupOp::EvalLoad ? "load "
                      : Op.K == SetupOp::EvalCall ? "call "
                                                  : "EMIT ";
      Out += formatString("  %s %s %s <- %s, %s", K, opcodeName(Op.Op),
                          Op.Dst == NoReg ? "-" : F.regName(Op.Dst).c_str(),
                          OpndStr(Op.A).c_str(), OpndStr(Op.B).c_str());
      if (Op.K == SetupOp::EmitInstr) {
        if (Op.ZcpCand)
          Out += " [zcp]";
        if (Op.SrCand)
          Out += " [sr]";
        if (Op.Deferrable)
          Out += " [defer]";
      }
      Out += "\n";
    }
  }
  return Out;
}

} // namespace cogen
} // namespace dyc
