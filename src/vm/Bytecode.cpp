//===- vm/Bytecode.cpp -----------------------------------------------------===//

#include "vm/Bytecode.h"

namespace dyc {
namespace vm {

namespace {

struct OpRow {
  const char *Mnemonic;
  OpShape Shape;
};

constexpr OpRow Rows[] = {
#define DYC_OP(Name, Mnemonic, Shape, Cost) {Mnemonic, OpShape::Shape},
#include "support/OpTable.def"
};
static_assert(sizeof(Rows) / sizeof(Rows[0]) == NumOps);

bool isOp(Op O) { return static_cast<unsigned>(O) < NumOps; }
const OpRow &rowOf(Op O) { return Rows[static_cast<unsigned>(O)]; }

} // namespace

const char *opName(Op O) { return isOp(O) ? rowOf(O).Mnemonic : "<bad-op>"; }

bool isTerminatorLike(Op O) {
  if (!isOp(O))
    return false;
  switch (rowOf(O).Shape) {
  case OpShape::Br:
  case OpShape::CondBr:
  case OpShape::Ret:
  case OpShape::Region:
  case OpShape::Point:
  case OpShape::Exit:
  case OpShape::None:
    return true;
  default:
    return false;
  }
}

bool registersInFrame(const Instr &I, uint32_t NumRegs) {
  if (!isOp(I.Opcode))
    return false;
  auto Reg = [NumRegs](uint32_t R) { return R < NumRegs; };
  auto RegOrNone = [&](uint32_t R) { return R == NoReg || Reg(R); };
  switch (rowOf(I.Opcode).Shape) {
  case OpShape::RI: case OpShape::RF: case OpShape::LoadAbs:
  case OpShape::StoreAbs: case OpShape::CondBr:
    return Reg(I.A);
  case OpShape::RR: case OpShape::RRI: case OpShape::RRF: case OpShape::Load:
  case OpShape::Store:
    return Reg(I.A) && Reg(I.B);
  case OpShape::RRR:
    return Reg(I.A) && Reg(I.B) && Reg(I.C);
  case OpShape::Call: case OpShape::CallExt:
    return RegOrNone(I.A) && uint64_t(I.B) + I.C <= NumRegs;
  case OpShape::Ret:
    return RegOrNone(I.A);
  case OpShape::Br: case OpShape::Region: case OpShape::Point:
  case OpShape::Exit: case OpShape::None:
    return true;
  }
  return false;
}

std::string toString(const Instr &I) {
  std::string S = opName(I.Opcode);
  if (!isOp(I.Opcode))
    return S;
  const long long Imm = I.Imm;
  const double FImm = Word{static_cast<uint64_t>(I.Imm)}.asFloat();
  switch (rowOf(I.Opcode).Shape) {
  case OpShape::RI:
    return S + formatString(" r%u, %lld", I.A, Imm);
  case OpShape::RF:
    return S + formatString(" r%u, %g", I.A, FImm);
  case OpShape::RR:
    return S + formatString(" r%u, r%u", I.A, I.B);
  case OpShape::RRR:
    return S + formatString(" r%u, r%u, r%u", I.A, I.B, I.C);
  case OpShape::RRI:
    return S + formatString(" r%u, r%u, %lld", I.A, I.B, Imm);
  case OpShape::RRF:
    return S + formatString(" r%u, r%u, %g", I.A, I.B, FImm);
  case OpShape::Load:
    return S + formatString(" r%u, [r%u + %lld]", I.A, I.B, Imm);
  case OpShape::LoadAbs:
    return S + formatString(" r%u, [%lld]", I.A, Imm);
  case OpShape::Store:
    return S + formatString(" [r%u + %lld], r%u", I.B, Imm, I.A);
  case OpShape::StoreAbs:
    return S + formatString(" [%lld], r%u", Imm, I.A);
  case OpShape::Call:
    return S + formatString(" r%u, fn%lld, args r%u..+%u", I.A, Imm, I.B,
                            I.C);
  case OpShape::CallExt:
    return S + formatString(" r%u, ext%lld, args r%u..+%u", I.A, Imm, I.B,
                            I.C);
  case OpShape::Br:
    return S + formatString(" @%u", I.B);
  case OpShape::CondBr:
    return S + formatString(" r%u, @%u, @%u", I.A, I.B, I.C);
  case OpShape::Ret:
    return I.A == NoReg ? S : S + formatString(" r%u", I.A);
  case OpShape::Region:
    return S + formatString(" region%lld", Imm);
  case OpShape::Point:
    return S + formatString(" point%lld", Imm);
  case OpShape::Exit:
    return S + formatString(" resume @%u", I.B);
  case OpShape::None:
    break;
  }
  return S;
}

std::string disassemble(const CodeObject &CO) {
  std::string Out;
  Out += formatString("; code object '%s': %zu instructions, %u regs\n",
                      CO.Name.c_str(), CO.Code.size(), CO.NumRegs);
  for (size_t I = 0; I != CO.Code.size(); ++I)
    Out += formatString("%5zu:  %s\n", I, toString(CO.Code[I]).c_str());
  return Out;
}

} // namespace vm
} // namespace dyc
