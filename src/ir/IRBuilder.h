//===- ir/IRBuilder.h - Convenience IR construction -------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helper for building IR by hand (used by tests and the AST lowering).
/// Tracks a current insertion block; each emitter appends one instruction
/// and returns the destination register where applicable.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_IR_IRBUILDER_H
#define DYC_IR_IRBUILDER_H

#include "ir/Module.h"

namespace dyc {
namespace ir {

/// Appends instructions to a block of a function.
class IRBuilder {
public:
  explicit IRBuilder(Function &F) : F(F) {}

  void setInsertPoint(BlockId B) { Cur = B; }
  BlockId insertPoint() const { return Cur; }
  Function &function() { return F; }

  Reg constI(int64_t V, std::string_view Name = {});
  Reg constF(double V, std::string_view Name = {});

  /// Two-operand arithmetic/compare; the result type is inferred from the
  /// opcode.
  Reg binary(Opcode Op, Reg A, Reg B, std::string_view Name = {});

  Reg unary(Opcode Op, Reg A, std::string_view Name = {});
  Reg mov(Reg Src, std::string_view Name = {});

  /// Copies \p Src into the existing register \p Dst (used for assignments
  /// to named variables in the non-SSA IR).
  void movTo(Reg Dst, Reg Src);

  /// Loads Mem[Addr + Off]; \p Static is the `@` annotation; \p Ty is the
  /// loaded value's type.
  Reg load(Reg Addr, int64_t Off, Type Ty, bool Static = false,
           std::string_view Name = {});
  void store(Reg Addr, int64_t Off, Reg Val);

  /// Calls module function \p Callee; Dst is NoReg for void calls.
  Reg call(const Module &M, int Callee, std::vector<Reg> Args,
           bool Static = false, std::string_view Name = {});
  Reg callExt(const Module &M, int Callee, std::vector<Reg> Args,
              bool Static = false, std::string_view Name = {});

  void br(BlockId Target);
  void condBr(Reg Cond, BlockId T, BlockId FBlk);
  void ret(Reg V = NoReg);

  void makeStatic(std::vector<Reg> Vars,
                  CachePolicy Policy = CachePolicy::CacheAll);
  void makeDynamic(std::vector<Reg> Vars);

private:
  Instruction &append(Instruction I);

  Function &F;
  BlockId Cur = 0;
};

/// Result type of \p Op (I64 for integer/compare ops, F64 for FP ops).
Type resultTypeOf(Opcode Op);

} // namespace ir
} // namespace dyc

#endif // DYC_IR_IRBUILDER_H
