//===- ir/Function.cpp -------------------------------------------------------===//

#include "ir/Function.h"

namespace dyc {
namespace ir {

Reg Function::newReg(Type Ty, std::string_view Name) {
  assert(Ty != Type::Void && "registers cannot be void");
  RegTypes.push_back(Ty);
  NameChars += Name;
  NameEnd.push_back(static_cast<uint32_t>(NameChars.size()));
  return static_cast<Reg>(RegTypes.size() - 1);
}

std::string Function::regName(Reg R) const {
  assert(R < RegTypes.size() && "register out of range");
  uint32_t Begin = R ? NameEnd[R - 1] : 0;
  if (Begin == NameEnd[R])
    return "t" + std::to_string(R);
  return NameChars.substr(Begin, NameEnd[R] - Begin);
}

BlockId Function::newBlock(std::string_view Name) {
  Blocks.emplace_back();
  Blocks.back().Name = Name.empty() ? formatString("bb%zu", Blocks.size() - 1)
                                    : std::string(Name);
  return static_cast<BlockId>(Blocks.size() - 1);
}

bool Function::hasAnnotations() const {
  for (const BasicBlock &B : Blocks)
    for (const Instruction &I : B.Instrs)
      if (I.Op == Opcode::MakeStatic)
        return true;
  return false;
}

size_t Function::numInstructions() const {
  size_t N = 0;
  for (const BasicBlock &B : Blocks)
    N += B.Instrs.size();
  return N;
}

} // namespace ir
} // namespace dyc
