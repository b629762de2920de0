//===- ir/Module.h - Translation unit ----------------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module owns functions and external-function declarations. External
/// declarations record purity (whether a `static` call annotation is legal)
/// and are resolved against the VM's ExternalRegistry at lowering time.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_IR_MODULE_H
#define DYC_IR_MODULE_H

#include "ir/Function.h"

#include <string>
#include <vector>

namespace dyc {
namespace ir {

/// Declaration of a host-implemented callee.
struct ExternalDecl {
  std::string Name;
  unsigned NumArgs = 0;
  bool Pure = false;
  Type RetTy = Type::F64;
  unsigned Line = 0; ///< source line of the declaration; 0 if built by hand
};

/// A translation unit.
class Module {
public:
  /// Adds \p F (by move); returns its index.
  int addFunction(Function F);

  /// Declares an external; returns its index.
  int declareExternal(ExternalDecl D);

  int findFunction(const std::string &Name) const;
  int findExternal(const std::string &Name) const;

  Function &function(int Idx) {
    assert(Idx >= 0 && static_cast<size_t>(Idx) < Funcs.size());
    return Funcs[static_cast<size_t>(Idx)];
  }
  const Function &function(int Idx) const {
    assert(Idx >= 0 && static_cast<size_t>(Idx) < Funcs.size());
    return Funcs[static_cast<size_t>(Idx)];
  }

  const ExternalDecl &external(int Idx) const {
    assert(Idx >= 0 && static_cast<size_t>(Idx) < Externals.size());
    return Externals[static_cast<size_t>(Idx)];
  }

  size_t numFunctions() const { return Funcs.size(); }
  size_t numExternals() const { return Externals.size(); }

private:
  std::vector<Function> Funcs;
  std::vector<ExternalDecl> Externals;
};

/// Renders \p F as text (blocks, instructions, register names).
std::string printFunction(const Function &F);

/// Renders the whole module.
std::string printModule(const Module &M);

/// Checks structural invariants: every block ends in exactly one
/// terminator, all register/block/callee references are in range, operand
/// types match opcode expectations. Returns an empty string on success or
/// a description of the first problem found.
std::string verifyFunction(const Function &F, const Module &M);
std::string verifyModule(const Module &M);

} // namespace ir
} // namespace dyc

#endif // DYC_IR_MODULE_H
