//===- ir/Instruction.h - Three-address IR instructions --------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's intermediate representation: a non-SSA three-address code
/// over typed virtual registers, mirroring the Multiflow-style IR DyC
/// operated on. Binding times are properties of *variables at program
/// points*, so the IR deliberately has no phis; merges are handled by the
/// dataflow analyses.
///
/// DyC's annotations are first-class here:
///  * MakeStatic / MakeDynamic pseudo-instructions carry the annotated
///    variable list and a cache policy (paper sections 2.2.1-2.2.3),
///  * Load carries a StaticLoad bit (the `@` annotation, section 2.2.6),
///  * Call/CallExt carry a StaticCall bit (pure-function annotation).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_IR_INSTRUCTION_H
#define DYC_IR_INSTRUCTION_H

#include "support/OpTable.h"
#include "support/Support.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dyc {
namespace ir {

/// Virtual register index within a function.
using Reg = uint32_t;
constexpr Reg NoReg = 0xffffffffu;

/// Block index within a function.
using BlockId = uint32_t;
constexpr BlockId NoBlock = 0xffffffffu;

/// Register/value types. Words are 64-bit; the type selects the
/// interpretation and the opcodes a register may feed.
enum class Type : uint8_t { Void, I64, F64 };

const char *typeName(Type T);

/// Dispatch policies for dynamic-to-static promotion points
/// (section 2.2.3). CacheAll is DyC's safe default (double-hashed lookup on
/// the static-variable values); CacheOne keeps a single checked entry;
/// CacheOneUnchecked is the unsafe-but-fast single load + indirect jump.
/// CacheIndexed implements the extension the paper sketches in section
/// 3.1 for byte-ranged keys ("the lookup could be implemented as a simple
/// array indexing"): the *last* annotated variable indexes a direct
/// array (it must stay within [0, 65535]); any other annotated variables
/// are treated as unchecked invariants.
enum class CachePolicy : uint8_t {
  CacheAll, CacheOne, CacheOneUnchecked, CacheIndexed
};

const char *cachePolicyName(CachePolicy P);

/// IR operations. Reg-immediate selection happens at lowering/emission;
/// the IR keeps constants in registers so binding-time analysis sees them
/// as ordinary static computations.
enum class Opcode : uint8_t {
  ConstI, ///< Dst <- Imm
  ConstF, ///< Dst <- bitcast double Imm
  Mov,    ///< Dst <- Src1 (type from the register)

  // The op table's pure operations (support/OpTable.def), in its order:
  // Dst <- op(Src1, Src2), or op(Src1) for the unary ones. Integer and
  // floating arithmetic, comparisons (I64 result) and conversions.
#define DYC_PURE(Name, Mnemonic, Shape, OpTy, ResTy, Cost, Fault, Msg, Value)  \
  Name,
#include "support/OpTable.def"

  Load,  ///< Dst <- Mem[Src1 + Imm]; StaticLoad bit = `@` annotation
  Store, ///< Mem[Src1 + Imm] <- Src2

  Call,    ///< Dst <- call Callee(Args); StaticCall bit = pure annotation
  CallExt, ///< external callee

  Br,     ///< goto TrueSucc
  CondBr, ///< if Src1 goto TrueSucc else FalseSucc
  Ret,    ///< return Src1 (NoReg for void)

  MakeStatic,  ///< annotation: promote AnnotVars to static (policy applies)
  MakeDynamic, ///< annotation: demote AnnotVars to dynamic
};

/// What the op table says about an IR opcode. The fields past Name keep
/// their defaults for the opcodes that are not one of its pure operations.
struct OpcodeInfo {
  const char *Name = nullptr;
  bool Pure = false;    ///< one of the op table's pure operations
  bool Unary = false;   ///< a pure operation of Src1 alone
  bool Compare = false; ///< a pure comparison (I64 result, 0 or 1)
  Type OperandTy = Type::Void;
  Type ResultTy = Type::Void;
  OpFault Fault = OpFault::Never;
};

namespace detail {

constexpr bool isCompareRow(Opcode Op) {
  switch (Op) {
#define DYC_CMP(Name, Mnemonic, Shape, OpTy, Cost, Value) case Opcode::Name:
#include "support/OpTable.def"
    return true;
  default:
    return false;
  }
}

inline constexpr OpcodeInfo OpcodeInfos[] = {
    {"consti"},
    {"constf"},
    {"mov"},
#define DYC_PURE(Name, Mnemonic, Shape, OpTy, ResTy, Cost, Fault, Msg, Value)  \
  {Mnemonic, true, OpShape::Shape == OpShape::RR, isCompareRow(Opcode::Name),  \
   Type::OpTy, Type::ResTy, OpFault::Fault},
#include "support/OpTable.def"
    {"load"},
    {"store"},
    {"call"},
    {"callext"},
    {"br"},
    {"condbr"},
    {"ret"},
    {"make_static"},
    {"make_dynamic"},
};
constexpr size_t NumOpcodes = sizeof(OpcodeInfos) / sizeof(OpcodeInfos[0]);
static_assert(NumOpcodes == static_cast<size_t>(Opcode::MakeDynamic) + 1);
inline constexpr OpcodeInfo BadOpcode{"<bad-opcode>"};

} // namespace detail

inline const OpcodeInfo &opcodeInfo(Opcode Op) {
  size_t K = static_cast<size_t>(Op);
  return K < detail::NumOpcodes ? detail::OpcodeInfos[K] : detail::BadOpcode;
}

inline const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

/// True for the opcodes that read Src1 alone: Mov and the unary pure
/// operations.
inline bool isUnaryOp(Opcode Op) {
  return Op == Opcode::Mov || opcodeInfo(Op).Unary;
}

/// One IR instruction. A single struct covers every opcode; unused fields
/// stay at their defaults.
struct Instruction {
  Opcode Op = Opcode::Ret;
  Type Ty = Type::Void; ///< result type (Void if no Dst)
  Reg Dst = NoReg;
  Reg Src1 = NoReg;
  Reg Src2 = NoReg;
  int64_t Imm = 0; ///< ConstI value, ConstF bits, or Load/Store offset

  // Call payload.
  int32_t Callee = -1; ///< function index (Call) or external index (CallExt)
  std::vector<Reg> Args;

  // Branch payload.
  BlockId TrueSucc = NoBlock;
  BlockId FalseSucc = NoBlock;

  // DyC annotations.
  bool StaticLoad = false;
  bool StaticCall = false;
  CachePolicy Policy = CachePolicy::CacheAll;
  std::vector<Reg> AnnotVars;

  bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret;
  }

  bool isAnnotation() const {
    return Op == Opcode::MakeStatic || Op == Opcode::MakeDynamic;
  }

  /// True if the instruction writes Dst.
  bool definesReg() const { return Dst != NoReg; }

  /// Calls \p F with every register this instruction reads, in operand
  /// order (a promotion reads its annotated variables).
  template <typename Fn> void forEachUse(Fn F) const {
    switch (Op) {
    case Opcode::ConstI:
    case Opcode::ConstF:
    case Opcode::Br:
    case Opcode::MakeDynamic:
      return;
    case Opcode::MakeStatic:
      for (Reg R : AnnotVars)
        F(R);
      return;
    case Opcode::Ret:
    case Opcode::CondBr:
      if (Src1 != NoReg)
        F(Src1);
      return;
    case Opcode::Call:
    case Opcode::CallExt:
      for (Reg A : Args)
        F(A);
      return;
    case Opcode::Store:
      F(Src1);
      F(Src2);
      return;
    default:
      if (Src1 != NoReg)
        F(Src1);
      if (Src2 != NoReg)
        F(Src2);
      return;
    }
  }

  /// Appends every register this instruction reads to \p Uses.
  void appendUses(std::vector<Reg> &Uses) const {
    forEachUse([&](Reg R) { Uses.push_back(R); });
  }

  /// Renders the instruction for dumps.
  std::string toString() const;
};

/// Builds the common three-operand instruction.
Instruction makeBinary(Opcode Op, Type Ty, Reg Dst, Reg A, Reg B);

/// Builds a unary instruction (Mov/Neg/FNeg/IToF/FToI).
Instruction makeUnary(Opcode Op, Type Ty, Reg Dst, Reg A);

} // namespace ir
} // namespace dyc

#endif // DYC_IR_INSTRUCTION_H
