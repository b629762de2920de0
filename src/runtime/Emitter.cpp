//===- runtime/Emitter.cpp - The concrete emit domain ------------------------------===//

#include "runtime/Emitter.h"

namespace dyc {
namespace runtime {

using ir::Opcode;
namespace v = vm;

bool isUnaryOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Mov: case Opcode::Neg: case Opcode::FNeg:
  case Opcode::IToF: case Opcode::FToI:
    return true;
  default:
    return false;
  }
}

void Concrete::emit(v::Instr I) {
  if (Buf.Code.size() >= MaxInstrs)
    ++Stats.CodeCapHits; // soft cap: count, don't truncate or abort
  Buf.Code.push_back(I);
  ++Stats.InstructionsGenerated;
  charge(Charge::Emit);
}

} // namespace runtime
} // namespace dyc
