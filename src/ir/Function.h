//===- ir/Function.h - Basic blocks, functions ------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic blocks and functions. Blocks live in a function-owned vector and
/// are referenced by index (BlockId); block 0 is the entry. Virtual
/// registers are function-scoped and typed; parameters occupy registers
/// 0..NumParams-1.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_IR_FUNCTION_H
#define DYC_IR_FUNCTION_H

#include "ir/Instruction.h"

#include <string>
#include <string_view>
#include <vector>

namespace dyc {
namespace ir {

/// A basic block: zero or more non-terminator instructions followed by
/// exactly one terminator (the verifier enforces this).
struct BasicBlock {
  std::string Name;
  std::vector<Instruction> Instrs;

  const Instruction &terminator() const {
    assert(!Instrs.empty() && Instrs.back().isTerminator() &&
           "block has no terminator");
    return Instrs.back();
  }

  /// Calls \p F with each successor block id, in terminator order (a
  /// condbr with identical targets names its target twice).
  template <typename Fn> void forEachSuccessor(Fn F) const {
    const Instruction &T = terminator();
    if (T.Op == Opcode::Br) {
      F(T.TrueSucc);
    } else if (T.Op == Opcode::CondBr) {
      F(T.TrueSucc);
      F(T.FalseSucc);
    }
  }
};

/// A function: typed virtual registers, a CFG of basic blocks, and
/// metadata used by the DyC pipeline.
class Function {
public:
  std::string Name;
  uint32_t NumParams = 0;
  Type RetTy = Type::Void;
  /// Pure-function annotation (paper section 2.2.6): calls to pure
  /// functions with all-static arguments may be executed at dynamic-compile
  /// time. This is a potentially unsafe programmer assertion, as in DyC.
  bool Pure = false;

  /// Creates a fresh register of type \p Ty with debug name \p Name;
  /// without one, regName calls it `tN`.
  Reg newReg(Type Ty, std::string_view Name = {});

  /// Creates a new block; returns its id.
  BlockId newBlock(std::string_view Name = {});

  BasicBlock &block(BlockId Id) {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id];
  }
  const BasicBlock &block(BlockId Id) const {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id];
  }

  size_t numBlocks() const { return Blocks.size(); }
  uint32_t numRegs() const { return static_cast<uint32_t>(RegTypes.size()); }

  Type regType(Reg R) const {
    assert(R < RegTypes.size() && "register out of range");
    return RegTypes[R];
  }

  /// \p R's debug name, or `tN` for an unnamed register N.
  std::string regName(Reg R) const;

  /// True if any block contains a MakeStatic annotation — i.e., DyC will
  /// build dynamic regions for this function.
  bool hasAnnotations() const;

  /// Total instruction count across blocks (annotations included).
  size_t numInstructions() const;

  std::vector<BasicBlock> Blocks;

private:
  std::vector<Type> RegTypes;
  /// Register R's debug name is NameChars[NameEnd[R - 1], NameEnd[R])
  /// (from 0 for R = 0); empty if it has none.
  std::vector<uint32_t> NameEnd;
  std::string NameChars;
};

} // namespace ir
} // namespace dyc

#endif // DYC_IR_FUNCTION_H
