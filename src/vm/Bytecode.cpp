//===- vm/Bytecode.cpp -----------------------------------------------------===//

#include "vm/Bytecode.h"

namespace dyc {
namespace vm {

const char *opName(Op O) {
  switch (O) {
  case Op::ConstI: return "consti";
  case Op::ConstF: return "constf";
  case Op::Mov: return "mov";
  case Op::FMov: return "fmov";
  case Op::Add: return "add";
  case Op::Sub: return "sub";
  case Op::Mul: return "mul";
  case Op::Div: return "div";
  case Op::Rem: return "rem";
  case Op::And: return "and";
  case Op::Or: return "or";
  case Op::Xor: return "xor";
  case Op::Shl: return "shl";
  case Op::Shr: return "shr";
  case Op::Neg: return "neg";
  case Op::AddI: return "addi";
  case Op::SubI: return "subi";
  case Op::MulI: return "muli";
  case Op::DivI: return "divi";
  case Op::RemI: return "remi";
  case Op::AndI: return "andi";
  case Op::OrI: return "ori";
  case Op::XorI: return "xori";
  case Op::ShlI: return "shli";
  case Op::ShrI: return "shri";
  case Op::FAdd: return "fadd";
  case Op::FSub: return "fsub";
  case Op::FMul: return "fmul";
  case Op::FDiv: return "fdiv";
  case Op::FNeg: return "fneg";
  case Op::FAddI: return "faddi";
  case Op::FSubI: return "fsubi";
  case Op::FMulI: return "fmuli";
  case Op::FDivI: return "fdivi";
  case Op::CmpEq: return "cmpeq";
  case Op::CmpNe: return "cmpne";
  case Op::CmpLt: return "cmplt";
  case Op::CmpLe: return "cmple";
  case Op::CmpGt: return "cmpgt";
  case Op::CmpGe: return "cmpge";
  case Op::CmpEqI: return "cmpeqi";
  case Op::CmpNeI: return "cmpnei";
  case Op::CmpLtI: return "cmplti";
  case Op::CmpLeI: return "cmplei";
  case Op::CmpGtI: return "cmpgti";
  case Op::CmpGeI: return "cmpgei";
  case Op::FCmpEq: return "fcmpeq";
  case Op::FCmpNe: return "fcmpne";
  case Op::FCmpLt: return "fcmplt";
  case Op::FCmpLe: return "fcmple";
  case Op::FCmpGt: return "fcmpgt";
  case Op::FCmpGe: return "fcmpge";
  case Op::IToF: return "itof";
  case Op::FToI: return "ftoi";
  case Op::Load: return "load";
  case Op::LoadAbs: return "loadabs";
  case Op::Store: return "store";
  case Op::StoreAbs: return "storeabs";
  case Op::Call: return "call";
  case Op::CallExt: return "callext";
  case Op::Br: return "br";
  case Op::CondBr: return "condbr";
  case Op::Ret: return "ret";
  case Op::EnterRegion: return "enter_region";
  case Op::Dispatch: return "dispatch";
  case Op::ExitRegion: return "exit_region";
  case Op::Halt: return "halt";
  }
  return "<bad-op>";
}

bool isTerminatorLike(Op O) {
  switch (O) {
  case Op::Br:
  case Op::CondBr:
  case Op::Ret:
  case Op::EnterRegion:
  case Op::Dispatch:
  case Op::ExitRegion:
  case Op::Halt:
    return true;
  default:
    return false;
  }
}

bool registersInFrame(const Instr &I, uint32_t NumRegs) {
  auto Reg = [NumRegs](uint32_t R) { return R < NumRegs; };
  auto RegOrNone = [&](uint32_t R) { return R == NoReg || Reg(R); };
  switch (I.Opcode) {
  case Op::ConstI: case Op::ConstF: case Op::LoadAbs: case Op::StoreAbs:
  case Op::CondBr:
    return Reg(I.A);
  case Op::Mov: case Op::FMov: case Op::Neg: case Op::FNeg: case Op::IToF:
  case Op::FToI: case Op::Load: case Op::Store:
  case Op::AddI: case Op::SubI: case Op::MulI: case Op::DivI: case Op::RemI:
  case Op::AndI: case Op::OrI: case Op::XorI: case Op::ShlI: case Op::ShrI:
  case Op::FAddI: case Op::FSubI: case Op::FMulI: case Op::FDivI:
  case Op::CmpEqI: case Op::CmpNeI: case Op::CmpLtI: case Op::CmpLeI:
  case Op::CmpGtI: case Op::CmpGeI:
    return Reg(I.A) && Reg(I.B);
  case Op::Add: case Op::Sub: case Op::Mul: case Op::Div: case Op::Rem:
  case Op::And: case Op::Or: case Op::Xor: case Op::Shl: case Op::Shr:
  case Op::FAdd: case Op::FSub: case Op::FMul: case Op::FDiv:
  case Op::CmpEq: case Op::CmpNe: case Op::CmpLt: case Op::CmpLe:
  case Op::CmpGt: case Op::CmpGe:
  case Op::FCmpEq: case Op::FCmpNe: case Op::FCmpLt: case Op::FCmpLe:
  case Op::FCmpGt: case Op::FCmpGe:
    return Reg(I.A) && Reg(I.B) && Reg(I.C);
  case Op::Call: case Op::CallExt:
    return RegOrNone(I.A) && uint64_t(I.B) + I.C <= NumRegs;
  case Op::Ret:
    return RegOrNone(I.A);
  case Op::Br: case Op::EnterRegion: case Op::Dispatch: case Op::ExitRegion:
  case Op::Halt:
    return true;
  }
  return false; // not an opcode
}

namespace {

bool hasFloatImm(Op O) {
  switch (O) {
  case Op::ConstF:
  case Op::FAddI:
  case Op::FSubI:
  case Op::FMulI:
  case Op::FDivI:
    return true;
  default:
    return false;
  }
}

} // namespace

std::string toString(const Instr &I) {
  std::string S = opName(I.Opcode);
  switch (I.Opcode) {
  case Op::ConstI:
    return S + formatString(" r%u, %lld", I.A, (long long)I.Imm);
  case Op::ConstF:
    return S + formatString(" r%u, %g", I.A, Word{(uint64_t)I.Imm}.asFloat());
  case Op::Mov:
  case Op::FMov:
  case Op::Neg:
  case Op::FNeg:
  case Op::IToF:
  case Op::FToI:
    return S + formatString(" r%u, r%u", I.A, I.B);
  case Op::Load:
    return S + formatString(" r%u, [r%u + %lld]", I.A, I.B, (long long)I.Imm);
  case Op::LoadAbs:
    return S + formatString(" r%u, [%lld]", I.A, (long long)I.Imm);
  case Op::Store:
    return S + formatString(" [r%u + %lld], r%u", I.B, (long long)I.Imm, I.A);
  case Op::StoreAbs:
    return S + formatString(" [%lld], r%u", (long long)I.Imm, I.A);
  case Op::Call:
    return S + formatString(" r%u, fn%lld, args r%u..+%u", I.A,
                            (long long)I.Imm, I.B, I.C);
  case Op::CallExt:
    return S + formatString(" r%u, ext%lld, args r%u..+%u", I.A,
                            (long long)I.Imm, I.B, I.C);
  case Op::Br:
    return S + formatString(" @%u", I.B);
  case Op::CondBr:
    return S + formatString(" r%u, @%u, @%u", I.A, I.B, I.C);
  case Op::Ret:
    return I.A == NoReg ? S : S + formatString(" r%u", I.A);
  case Op::EnterRegion:
    return S + formatString(" region%lld", (long long)I.Imm);
  case Op::Dispatch:
    return S + formatString(" point%lld", (long long)I.Imm);
  case Op::ExitRegion:
    return S + formatString(" resume @%u", I.B);
  case Op::Halt:
    return S;
  default:
    break;
  }
  if (hasFloatImm(I.Opcode))
    return S + formatString(" r%u, r%u, %g", I.A, I.B,
                            Word{(uint64_t)I.Imm}.asFloat());
  // Reg-imm integer forms.
  switch (I.Opcode) {
  case Op::AddI: case Op::SubI: case Op::MulI: case Op::DivI: case Op::RemI:
  case Op::AndI: case Op::OrI: case Op::XorI: case Op::ShlI: case Op::ShrI:
  case Op::CmpEqI: case Op::CmpNeI: case Op::CmpLtI: case Op::CmpLeI:
  case Op::CmpGtI: case Op::CmpGeI:
    return S + formatString(" r%u, r%u, %lld", I.A, I.B, (long long)I.Imm);
  default:
    break;
  }
  // Three-register forms.
  return S + formatString(" r%u, r%u, r%u", I.A, I.B, I.C);
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
