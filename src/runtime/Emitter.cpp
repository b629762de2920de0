//===- runtime/Emitter.cpp - The chain encoder -------------------------------------===//

#include "runtime/Emitter.h"

namespace dyc {
namespace runtime {

void Emitter::emit(vm::Instr I) {
  if (Buf.Code.size() >= MaxInstrs)
    ++Stats.CodeCapHits; // soft cap: count, don't truncate or abort
  Buf.Code.push_back(I);
  ++Stats.InstructionsGenerated;
  charge(CM.SpecEmit);
}

} // namespace runtime
} // namespace dyc
