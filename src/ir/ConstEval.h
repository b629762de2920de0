//===- ir/ConstEval.h - Compile-time/specialize-time evaluation ----------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates pure IR operations on constant Words. Shared by the static
/// constant folder and by the run-time specializer (the latter is exactly
/// "dynamic constant propagation and folding" — the paper's framing of
/// value-specific dynamic compilation).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_IR_CONSTEVAL_H
#define DYC_IR_CONSTEVAL_H

#include "ir/Instruction.h"

namespace dyc {
namespace ir {

/// Evaluates \p Op on \p A (and \p B for binary forms) as the op table
/// defines it, so the value is the one the VM computes. Returns false when
/// the operation faults on these operands (its table fault condition holds:
/// division by zero) or is not evaluable.
bool evalPureOp(Opcode Op, Word A, Word B, Word &Out);

/// True for opcodes evalPureOp can handle given constant operands: Mov and
/// the op table's pure operations (not loads, calls or control).
bool isEvaluableOp(Opcode Op);

} // namespace ir
} // namespace dyc

#endif // DYC_IR_CONSTEVAL_H
