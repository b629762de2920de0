//===- runtime/Deferral.cpp - Emit semantics, concrete instantiation ---------------===//
//
// The specializer's emit-time instantiation of the deferral engine; the
// plan builder instantiates the symbolic one in cogen/EmitPlan.cpp.
//
//===----------------------------------------------------------------------===//

#include "runtime/Deferral.h"

namespace dyc {
namespace runtime {

template class DeferralEngineT<Concrete>;

} // namespace runtime
} // namespace dyc
