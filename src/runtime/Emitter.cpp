//===- runtime/Emitter.cpp - The concrete emit domain ------------------------------===//

#include "runtime/Emitter.h"

namespace dyc {
namespace runtime {

namespace v = vm;

void Concrete::emit(v::Instr I) {
  if (Buf.Code.size() >= MaxInstrs)
    ++Stats.CodeCapHits; // soft cap: count, don't truncate or abort
  Buf.Code.push_back(I);
  ++Stats.InstructionsGenerated;
  charge(Charge::Emit);
}

} // namespace runtime
} // namespace dyc
