//===- support/OpTable.h - Vocabulary and values of the op table ------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The column vocabulary of the op table (support/OpTable.def) and the
/// values of its pure operations. The table is the one statement of the
/// instruction set. The VM expands it into its opcodes, both engines'
/// handlers, the disassembler, the cost model and the frame check; the IR
/// into its arithmetic opcodes, ir::evalPureOp and the verifier's type
/// classes; cogen into lowering's op maps. So the specializer folds a
/// static operation to exactly the value the machine computes, by
/// construction: both call the same opsem function.
///
/// Lives in support/ because both dyc_vm and dyc_ir expand it and neither
/// links the other.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SUPPORT_OPTABLE_H
#define DYC_SUPPORT_OPTABLE_H

#include "support/Support.h"

#include <cstdint>

namespace dyc {

/// An operation's operand shape: which of an instruction's A, B and C name
/// registers or pcs, and what its Imm holds.
enum class OpShape : uint8_t {
  RI,       ///< A register; Imm an integer
  RF,       ///< A register; Imm a double's bits
  RR,       ///< A, B registers
  RRR,      ///< A, B, C registers
  RRI,      ///< A, B registers; Imm an integer
  RRF,      ///< A, B registers; Imm a double's bits
  Load,     ///< A, B registers; Imm an offset
  LoadAbs,  ///< A register; Imm an address
  Store,    ///< A (value), B (base) registers; Imm an offset
  StoreAbs, ///< A (value) register; Imm an address
  Call,     ///< A register or NoReg; arguments R[B..B+C); Imm a function
  CallExt,  ///< as Call; Imm an external function
  Br,       ///< B a pc
  CondBr,   ///< A register; B, C pcs
  Ret,      ///< A register or NoReg
  Region,   ///< Imm a region
  Point,    ///< Imm a dispatch point
  Exit,     ///< B a pc in the function's static code
  None,     ///< no operands
};

/// When a pure operation faults instead of producing a value.
enum class OpFault : uint8_t {
  Never,
  ZeroB, ///< its second operand, register or immediate, is the integer 0
};

/// Whether an operation with fault condition \p F faults on second
/// operand \p B.
inline bool opFaults(OpFault F, Word B) {
  return F == OpFault::ZeroB && B == Word::fromInt(0);
}

/// The value of each pure operation of the table, one function per
/// register-form row, named after it: opsem::Add(A, B) and so on. A
/// unary operation ignores \p B. Callers test opFaults first: a faulting
/// operand is a fault, not a value.
namespace opsem {

inline int64_t asI64(Word W) { return W.asInt(); }
inline double asF64(Word W) { return W.asFloat(); }
inline Word fromI64(int64_t V) { return Word::fromInt(V); }
inline Word fromF64(double V) { return Word::fromFloat(V); }

#define DYC_PURE(Name, Mnemonic, Shape, OpTy, ResTy, Cost, Fault, Msg, Value)  \
  inline Word Name(Word A, [[maybe_unused]] Word B) {                          \
    [[maybe_unused]] const auto x = as##OpTy(A);                               \
    [[maybe_unused]] const auto y = as##OpTy(B);                               \
    return from##ResTy(Value);                                                 \
  }
#include "support/OpTable.def"

} // namespace opsem
} // namespace dyc

#endif // DYC_SUPPORT_OPTABLE_H
