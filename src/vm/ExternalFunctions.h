//===- vm/ExternalFunctions.h - Host-implemented callees -------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry of external functions callable from bytecode (math library
/// routines, mainly). Each is marked pure or impure: DyC may treat calls to
/// *annotated* pure functions with all-static arguments as static
/// computations, executing (memoizing) them at dynamic-compile time
/// (section 2.2.6) — chebyshev's 6.3x speedup comes from memoized calls to
/// cosine. Unannotated or impure functions are always dynamic.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_VM_EXTERNALFUNCTIONS_H
#define DYC_VM_EXTERNALFUNCTIONS_H

#include "support/Support.h"

#include <functional>
#include <string>
#include <vector>

namespace dyc {
namespace vm {

/// What a host function returns: an integer's bits or a double's.
enum class ExtResult : uint8_t { Int, Double };

/// One host-implemented function. Its arguments are doubles (lowering
/// coerces them); its result is what Result says, so a declaration must
/// give the same return type (cogen::checkExternals).
struct ExternalFunction {
  std::string Name;
  unsigned NumArgs = 0;
  ExtResult Result = ExtResult::Double;
  /// True if the function is referentially transparent; only pure externals
  /// may be invoked at specialization time.
  bool Pure = true;
  /// Execution cost in cycles (the callee's body; the call overhead is
  /// charged separately by the cost model).
  uint32_t CostCycles = 50;
  std::function<Word(const Word *Args)> Fn;
};

/// The table of externals for a program.
class ExternalRegistry {
public:
  /// Registers \p F; returns its index.
  unsigned add(ExternalFunction F);

  /// Registers the standard math set: cos, sin, sqrt, fabs, floor, pow,
  /// exp, log.
  void addStandardMath();

  /// Returns the index of \p Name or -1.
  int find(const std::string &Name) const;

  const ExternalFunction &get(unsigned Idx) const {
    assert(Idx < Table.size() && "external index out of range");
    return Table[Idx];
  }

  size_t size() const { return Table.size(); }

private:
  std::vector<ExternalFunction> Table;
};

} // namespace vm
} // namespace dyc

#endif // DYC_VM_EXTERNALFUNCTIONS_H
