//===- bta/BTAnalysis.h - Binding-time analysis ---------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flow-sensitive, program-point-specific binding-time analysis
/// (paper section 2.2): starting from make_static annotations, it derives
/// which computations are static (evaluated once at dynamic-compile time)
/// and which are dynamic (emitted), discovers dynamic-region extents
/// ("ending after the last use of any static value"), promotion points,
/// and polyvariant divisions.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_BTA_BTANALYSIS_H
#define DYC_BTA_BTANALYSIS_H

#include "bta/BindingTime.h"
#include "bta/OptFlags.h"

namespace dyc {
namespace bta {

/// Splits blocks so every MakeStatic annotation starts its block; run once
/// before static optimization so the static and dynamic compiles share one
/// CFG. Returns true if the function changed.
bool normalizeAnnotations(ir::Function &F);

/// Runs BTA on \p F (which must be normalized). Returns the region system;
/// Contexts is empty if the function has no annotations.
RegionInfo analyzeFunction(const ir::Function &F, const ir::Module &M,
                           const OptFlags &Flags);

/// analyzeFunction on every function of \p M, in order, with FuncIdx set.
std::vector<RegionInfo> analyzeModule(const ir::Module &M,
                                      const OptFlags &Flags);

/// Each function's region ordinal: those with contexts numbered 0, 1, ...
/// in order; -1 for the others.
std::vector<int> regionOrdinals(const std::vector<RegionInfo> &Regions);

/// Is \p I a static computation (evaluated at specialize time) when the
/// registers in \p Set are static? Annotations count as static.
bool isStaticInstr(const ir::Instruction &I, const BitVector &Set,
                   const ir::Module &M, const OptFlags &Flags);

/// Renders a context dump (for tests and debugging).
std::string printRegionInfo(const RegionInfo &R, const ir::Function &F);

} // namespace bta
} // namespace dyc

#endif // DYC_BTA_BTANALYSIS_H
