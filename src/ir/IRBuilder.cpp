//===- ir/IRBuilder.cpp --------------------------------------------------------===//

#include "ir/IRBuilder.h"

namespace dyc {
namespace ir {

Type resultTypeOf(Opcode Op) {
  if (Op == Opcode::ConstF)
    return Type::F64;
  const OpcodeInfo &Info = opcodeInfo(Op);
  return Info.Pure ? Info.ResultTy : Type::I64;
}

Instruction &IRBuilder::append(Instruction I) {
  BasicBlock &B = F.block(Cur);
  assert((B.Instrs.empty() || !B.Instrs.back().isTerminator()) &&
         "appending after a terminator");
  B.Instrs.push_back(std::move(I));
  return B.Instrs.back();
}

Reg IRBuilder::constI(int64_t V, std::string_view Name) {
  Instruction I;
  I.Op = Opcode::ConstI;
  I.Ty = Type::I64;
  I.Dst = F.newReg(Type::I64, Name);
  I.Imm = V;
  return append(std::move(I)).Dst;
}

Reg IRBuilder::constF(double V, std::string_view Name) {
  Instruction I;
  I.Op = Opcode::ConstF;
  I.Ty = Type::F64;
  I.Dst = F.newReg(Type::F64, Name);
  I.Imm = static_cast<int64_t>(Word::fromFloat(V).Bits);
  return append(std::move(I)).Dst;
}

Reg IRBuilder::binary(Opcode Op, Reg A, Reg B, std::string_view Name) {
  Type Ty = resultTypeOf(Op);
  Reg Dst = F.newReg(Ty, Name);
  append(makeBinary(Op, Ty, Dst, A, B));
  return Dst;
}

Reg IRBuilder::unary(Opcode Op, Reg A, std::string_view Name) {
  Type Ty = resultTypeOf(Op);
  Reg Dst = F.newReg(Ty, Name);
  append(makeUnary(Op, Ty, Dst, A));
  return Dst;
}

Reg IRBuilder::mov(Reg Src, std::string_view Name) {
  Type Ty = F.regType(Src);
  Reg Dst = F.newReg(Ty, Name);
  append(makeUnary(Opcode::Mov, Ty, Dst, Src));
  return Dst;
}

void IRBuilder::movTo(Reg Dst, Reg Src) {
  assert(F.regType(Dst) == F.regType(Src) && "movTo type mismatch");
  append(makeUnary(Opcode::Mov, F.regType(Dst), Dst, Src));
}

Reg IRBuilder::load(Reg Addr, int64_t Off, Type Ty, bool Static,
                    std::string_view Name) {
  Instruction I;
  I.Op = Opcode::Load;
  I.Ty = Ty;
  I.Dst = F.newReg(Ty, Name);
  I.Src1 = Addr;
  I.Imm = Off;
  I.StaticLoad = Static;
  return append(std::move(I)).Dst;
}

void IRBuilder::store(Reg Addr, int64_t Off, Reg Val) {
  Instruction I;
  I.Op = Opcode::Store;
  I.Src1 = Addr;
  I.Src2 = Val;
  I.Imm = Off;
  append(std::move(I));
}

Reg IRBuilder::call(const Module &M, int Callee,
                    std::vector<Reg> Args, bool Static,
                    std::string_view Name) {
  const Function &CF = M.function(Callee);
  Instruction I;
  I.Op = Opcode::Call;
  I.Callee = Callee;
  I.Args = std::move(Args);
  I.StaticCall = Static;
  if (CF.RetTy != Type::Void) {
    I.Ty = CF.RetTy;
    I.Dst = F.newReg(CF.RetTy, Name);
  }
  return append(std::move(I)).Dst;
}

Reg IRBuilder::callExt(const Module &M, int Callee,
                       std::vector<Reg> Args, bool Static,
                       std::string_view Name) {
  const ExternalDecl &D = M.external(Callee);
  Instruction I;
  I.Op = Opcode::CallExt;
  I.Callee = Callee;
  I.Args = std::move(Args);
  I.StaticCall = Static;
  if (D.RetTy != Type::Void) {
    I.Ty = D.RetTy;
    I.Dst = F.newReg(D.RetTy, Name);
  }
  return append(std::move(I)).Dst;
}

void IRBuilder::br(BlockId Target) {
  Instruction I;
  I.Op = Opcode::Br;
  I.TrueSucc = Target;
  append(std::move(I));
}

void IRBuilder::condBr(Reg Cond, BlockId T, BlockId FBlk) {
  Instruction I;
  I.Op = Opcode::CondBr;
  I.Src1 = Cond;
  I.TrueSucc = T;
  I.FalseSucc = FBlk;
  append(std::move(I));
}

void IRBuilder::ret(Reg V) {
  Instruction I;
  I.Op = Opcode::Ret;
  I.Src1 = V;
  append(std::move(I));
}

void IRBuilder::makeStatic(std::vector<Reg> Vars, CachePolicy Policy) {
  Instruction I;
  I.Op = Opcode::MakeStatic;
  I.AnnotVars = std::move(Vars);
  I.Policy = Policy;
  append(std::move(I));
}

void IRBuilder::makeDynamic(std::vector<Reg> Vars) {
  Instruction I;
  I.Op = Opcode::MakeDynamic;
  I.AnnotVars = std::move(Vars);
  append(std::move(I));
}

} // namespace ir
} // namespace dyc
