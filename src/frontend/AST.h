//===- frontend/AST.h - MiniC abstract syntax ----------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Untyped AST produced by the parser; types are checked and attached
/// during lowering. MiniC is C-like: int/double scalars, int*/double*
/// word-addressed pointers, functions, if/while/for. DyC's annotations
/// appear as statements (`make_static`, `make_dynamic`) and as the `@[`
/// static-load index operator; functions may be declared `pure`, which
/// makes calls to them eligible for static-call treatment.
///
/// Storage is flat. Every name is a Symbol, a dense id from the program's
/// SymbolTable. Every node and every child list lives in the program's
/// BumpArena: nodes point at each other, and child lists are spans of
/// arena memory. So nodes are trivially destructible and the arena frees
/// them all at once. ProgramAST owns the arena and the table, so an AST
/// never points into the source it was parsed from.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_FRONTEND_AST_H
#define DYC_FRONTEND_AST_H

#include "ir/Instruction.h"
#include "support/Arena.h"

#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dyc {
namespace frontend {

/// A name, as an index into the program's SymbolTable.
using Symbol = uint32_t;

/// Interns names: equal names get the same Symbol, and ids are dense
/// (0, 1, 2, ... in order of first appearance), so per-name tables are
/// plain vectors indexed by Symbol. Each distinct name is copied once into
/// the table's own arena; views returned by name() live as long as the
/// table.
class SymbolTable {
public:
  Symbol intern(std::string_view Name);
  std::string_view name(Symbol S) const {
    return {Entries[S].Data, Entries[S].Len};
  }
  uint32_t size() const { return static_cast<uint32_t>(Entries.size()); }

private:
  struct Entry {
    const char *Data; ///< in Chars
    uint32_t Len;
    uint32_t Hash;
  };

  void rehash();

  BumpArena Chars{4096};
  std::vector<Entry> Entries; ///< by Symbol
  /// Open addressing over Symbol + 1 (0 is empty); a power of two, at
  /// most half full.
  std::vector<uint32_t> Slots;
};

/// Source-level types.
enum class MTy : uint8_t { Int, Double, IntPtr, DoublePtr, Void };

const char *mtyName(MTy T);

enum class BinOp : uint8_t {
  Add, Sub, Mul, Div, Rem,
  Eq, Ne, Lt, Le, Gt, Ge,
  LogAnd, LogOr, ///< evaluated without short-circuit (documented)
  BitAnd, BitOr, BitXor, Shl, Shr,
};

enum class UnOp : uint8_t { Neg, Not };

/// Expression node (tagged union).
struct Expr {
  enum Kind : uint8_t {
    IntLit, FloatLit, Var, Unary, Binary, Index, Call, Cast
  } K = IntLit;

  UnOp UOp = UnOp::Neg;     // Unary
  BinOp BOp = BinOp::Add;   // Binary
  bool StaticIndex = false; ///< `@[` — the static-load annotation
  MTy CastTo = MTy::Int;    // Cast (operand in L)
  /// Subtree height, bounded by the parser (frontend/Parser.h).
  uint16_t Depth = 1;
  unsigned Line = 0;
  Symbol Name = 0;          // Var, Call

  int64_t IntVal = 0;    // IntLit
  double FloatVal = 0;   // FloatLit
  Expr *L = nullptr;     // Unary, Binary, Index (base), Cast
  Expr *R = nullptr;     // Binary, Index (index)
  std::span<Expr *const> Args; // Call
};

/// Statement node (tagged union).
struct Stmt {
  enum Kind : uint8_t {
    Decl, Assign, If, While, For, Return, ExprSt, Block,
    Break, Continue,
    MakeStatic, MakeDynamic
  } K = Block;

  MTy DeclTy = MTy::Int; // Decl
  ir::CachePolicy Policy = ir::CachePolicy::CacheAll; // MakeStatic
  unsigned Line = 0;
  Symbol Name = 0;       // Decl

  Expr *Init = nullptr;  // Decl
  Expr *LHS = nullptr;   // Assign: a Var or an Index
  Expr *RHS = nullptr;   // Assign
  Expr *Cond = nullptr;  // If / While / For
  Stmt *Then = nullptr;  // If
  Stmt *Else = nullptr;  // If
  Stmt *Body = nullptr;  // While / For
  Stmt *ForInit = nullptr; // For (Decl or Assign)
  Stmt *ForStep = nullptr; // For (Decl or Assign)
  Expr *E = nullptr;     // Return / ExprSt

  std::span<Stmt *const> Stmts; // Block
  std::span<const Symbol> Vars; // MakeStatic / MakeDynamic
};

/// A parameter declaration.
struct ParamDecl {
  MTy Ty = MTy::Int;
  Symbol Name = 0;
};

/// A function definition.
struct FuncDecl {
  Symbol Name = 0;
  MTy RetTy = MTy::Void;
  bool Pure = false;
  unsigned Line = 0;
  std::span<const ParamDecl> Params;
  Stmt *Body = nullptr; // Block
};

/// An external declaration.
struct ExternDeclAST {
  Symbol Name = 0;
  MTy RetTy = MTy::Double;
  bool Pure = false;
  unsigned Line = 0;
  std::span<const MTy> ArgTys;
};

// The arena never runs destructors.
static_assert(std::is_trivially_destructible_v<Expr> &&
              std::is_trivially_destructible_v<Stmt> &&
              std::is_trivially_destructible_v<FuncDecl> &&
              std::is_trivially_destructible_v<ExternDeclAST>);

/// A parsed translation unit: the declarations, the arena they live in
/// and the names they use. Movable; moving keeps every node in place.
struct ProgramAST {
  BumpArena Arena;
  SymbolTable Syms;
  std::span<const ExternDeclAST> Externs;
  std::span<const FuncDecl> Funcs;

  std::string_view name(Symbol S) const { return Syms.name(S); }
};

} // namespace frontend
} // namespace dyc

#endif // DYC_FRONTEND_AST_H
