//===- ir/ConstEval.cpp -----------------------------------------------------------===//

#include "ir/ConstEval.h"

namespace dyc {
namespace ir {

bool isEvaluableOp(Opcode Op) {
  return Op == Opcode::Mov || opcodeInfo(Op).Pure;
}

bool evalPureOp(Opcode Op, Word A, Word B, Word &Out) {
  switch (Op) {
  case Opcode::Mov:
    Out = A;
    return true;
#define DYC_PURE(Name, Mnemonic, Shape, OpTy, ResTy, Cost, Fault, Msg, Value)  \
  case Opcode::Name:                                                           \
    if (opFaults(OpFault::Fault, B))                                           \
      return false;                                                            \
    Out = opsem::Name(A, B);                                                   \
    return true;
#include "support/OpTable.def"
  default:
    return false;
  }
}

} // namespace ir
} // namespace dyc
