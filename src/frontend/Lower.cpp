//===- frontend/Lower.cpp --------------------------------------------------------===//

#include "frontend/Lower.h"

#include "frontend/Parser.h"
#include "ir/IRBuilder.h"

namespace dyc {
namespace frontend {

namespace {

using ir::BlockId;
using ir::Opcode;
using ir::Reg;

ir::Type irTypeOf(MTy T) {
  switch (T) {
  case MTy::Double:
    return ir::Type::F64;
  case MTy::Void:
    return ir::Type::Void;
  default:
    return ir::Type::I64; // int and both pointer flavors
  }
}

bool isPtr(MTy T) { return T == MTy::IntPtr || T == MTy::DoublePtr; }

/// A typed value during expression lowering.
struct TValue {
  Reg R = ir::NoReg;
  MTy Ty = MTy::Int;
};

/// The variables in scope: one binding per symbol, plus an undo log.
/// Declaring a name saves the binding it shadows; leaving a scope restores
/// every binding saved since the scope was entered.
class ScopeTable {
public:
  struct VarInfo {
    Reg R = ir::NoReg;
    MTy Ty = MTy::Int;
  };

  explicit ScopeTable(uint32_t NumSymbols) : Bindings(NumSymbols) {}

  void push() { Marks.push_back(Log.size()); }
  void pop() {
    for (size_t Mark = Marks.back(); Log.size() != Mark; Log.pop_back())
      Bindings[Log.back().Name] = Log.back().Prev;
    Marks.pop_back();
  }

  /// Binds \p Name in the innermost scope; false if that scope already
  /// declares it (the new binding replaces the old one anyway).
  bool declare(Symbol Name, VarInfo V) {
    Binding &B = Bindings[Name];
    bool Fresh = B.Depth != Marks.size();
    Log.push_back({Name, B});
    B = {V, static_cast<uint32_t>(Marks.size())};
    return Fresh;
  }

  const VarInfo *lookup(Symbol Name) const {
    const Binding &B = Bindings[Name];
    return B.Depth ? &B.Var : nullptr;
  }

private:
  struct Binding {
    VarInfo Var;
    uint32_t Depth = 0; ///< of the declaring scope; 0 if unbound
  };
  struct Undo {
    Symbol Name;
    Binding Prev;
  };

  std::vector<Binding> Bindings; ///< by Symbol
  std::vector<Undo> Log;
  std::vector<size_t> Marks; ///< Log size at each open scope's entry
};

/// The first module function and the first external with a name (-1 if
/// none), as Module::findFunction / findExternal would answer.
struct CalleeOf {
  int Func = -1;
  int Ext = -1;
};

class FunctionLowering {
public:
  FunctionLowering(const ProgramAST &P, ir::Module &M, ir::Function &F,
                   const FuncDecl &D, ScopeTable &Scopes,
                   const std::vector<CalleeOf> &Callees,
                   std::vector<std::string> &Errors)
      : P(P), M(M), F(F), D(D), B(F), Scopes(Scopes), Callees(Callees),
        Errors(Errors) {}

  void run() {
    BlockId Entry = F.newBlock("entry");
    B.setInsertPoint(Entry);
    Scopes.push();
    for (const ParamDecl &PD : D.Params) {
      Reg R = F.newReg(irTypeOf(PD.Ty), P.name(PD.Name));
      declare(PD.Name, R, PD.Ty, D.Line);
    }
    F.NumParams = static_cast<uint32_t>(D.Params.size());
    lowerStmt(*D.Body);
    Scopes.pop();
    if (!terminated()) {
      if (D.RetTy == MTy::Void) {
        B.ret();
      } else {
        // Implicit zero return, C-style.
        Reg Z = D.RetTy == MTy::Double ? B.constF(0.0) : B.constI(0);
        B.ret(Z);
      }
    }
  }

private:
  void error(unsigned Line, const std::string &Msg) {
    Errors.push_back(formatString("line %u: in '%s': %s", Line,
                                  F.Name.c_str(), Msg.c_str()));
  }

  /// "\p What 'name'".
  std::string named(const char *What, Symbol Name) const {
    return std::string(What) + " '" + std::string(P.name(Name)) + "'";
  }

  // --- Scopes ---------------------------------------------------------------
  using VarInfo = ScopeTable::VarInfo;

  void declare(Symbol Name, Reg R, MTy Ty, unsigned Line) {
    if (!Scopes.declare(Name, {R, Ty}))
      error(Line, named("redeclaration of", Name));
  }

  /// True if \p S contains a `continue` that binds to the enclosing loop
  /// (nested loops capture their own).
  static bool bodyHasContinue(const Stmt &S) {
    switch (S.K) {
    case Stmt::Continue:
      return true;
    case Stmt::While:
    case Stmt::For:
      return false; // binds to the inner loop
    case Stmt::Block:
      for (const Stmt *Inner : S.Stmts)
        if (bodyHasContinue(*Inner))
          return true;
      return false;
    case Stmt::If:
      return (S.Then && bodyHasContinue(*S.Then)) ||
             (S.Else && bodyHasContinue(*S.Else));
    default:
      return false;
    }
  }

  bool terminated() const {
    const ir::BasicBlock &BB = F.block(B.insertPoint());
    return !BB.Instrs.empty() && BB.Instrs.back().isTerminator();
  }

  // --- Coercions --------------------------------------------------------------
  TValue coerce(TValue V, MTy To, unsigned Line) {
    if (V.Ty == To)
      return V;
    if (V.Ty == MTy::Int && To == MTy::Double)
      return {B.unary(Opcode::IToF, V.R), MTy::Double};
    error(Line, formatString("cannot convert %s to %s", mtyName(V.Ty),
                             mtyName(To)));
    return {V.R, To};
  }

  // --- Expressions -------------------------------------------------------------
  /// Lowers \p E where its value is needed: a void call has none, so it
  /// is reported and stands in as int 0.
  TValue lowerExpr(const Expr &E) {
    TValue V = lowerExprOrVoid(E);
    if (V.Ty != MTy::Void)
      return V;
    assert(E.K == Expr::Call && "only a call can be void");
    error(E.Line, named("value of void function", E.Name) + " used");
    return {B.constI(0), MTy::Int};
  }

  /// Lowers \p E, which may be a void call (an expression statement).
  TValue lowerExprOrVoid(const Expr &E) {
    switch (E.K) {
    case Expr::IntLit:
      return {B.constI(E.IntVal), MTy::Int};
    case Expr::FloatLit:
      return {B.constF(E.FloatVal), MTy::Double};
    case Expr::Var: {
      const VarInfo *V = Scopes.lookup(E.Name);
      if (!V) {
        error(E.Line, named("use of undeclared variable", E.Name));
        return {B.constI(0), MTy::Int};
      }
      return {V->R, V->Ty};
    }
    case Expr::Unary: {
      TValue V = lowerExpr(*E.L);
      if (E.UOp == UnOp::Neg) {
        if (V.Ty == MTy::Double)
          return {B.unary(Opcode::FNeg, V.R), MTy::Double};
        if (V.Ty != MTy::Int)
          error(E.Line, "negation of a pointer");
        return {B.unary(Opcode::Neg, V.R), MTy::Int};
      }
      // Logical not.
      if (V.Ty != MTy::Int)
        error(E.Line, "'!' requires an int operand");
      Reg Z = B.constI(0);
      return {B.binary(Opcode::CmpEq, V.R, Z), MTy::Int};
    }
    case Expr::Binary:
      return lowerBinary(E);
    case Expr::Index: {
      TValue Base = lowerExpr(*E.L);
      if (!isPtr(Base.Ty)) {
        error(E.Line, "indexing a non-pointer");
        return {B.constI(0), MTy::Int};
      }
      TValue Idx = lowerExpr(*E.R);
      if (Idx.Ty != MTy::Int)
        error(E.Line, "index must be an int");
      Reg Addr = B.binary(Opcode::Add, Base.R, Idx.R);
      MTy ElemTy = Base.Ty == MTy::IntPtr ? MTy::Int : MTy::Double;
      return {B.load(Addr, 0, irTypeOf(ElemTy), E.StaticIndex), ElemTy};
    }
    case Expr::Call:
      return lowerCall(E);
    case Expr::Cast: {
      TValue V = lowerExpr(*E.L);
      if (E.CastTo == MTy::Double) {
        if (V.Ty == MTy::Double)
          return V;
        if (V.Ty == MTy::Int)
          return {B.unary(Opcode::IToF, V.R), MTy::Double};
        error(E.Line, "cannot cast a pointer to double");
        return V;
      }
      if (V.Ty == MTy::Int || isPtr(V.Ty))
        return {V.R, E.CastTo};
      return {B.unary(Opcode::FToI, V.R), E.CastTo};
    }
    }
    fatal("unhandled expression kind");
  }

  TValue lowerBinary(const Expr &E) {
    TValue L = lowerExpr(*E.L);
    TValue R = lowerExpr(*E.R);

    auto IntOnly = [&](Opcode Op) -> TValue {
      if (L.Ty == MTy::Double || R.Ty == MTy::Double)
        error(E.Line, "operator requires integer operands");
      return {B.binary(Op, L.R, R.R), MTy::Int};
    };

    switch (E.BOp) {
    case BinOp::Rem: return IntOnly(Opcode::Rem);
    case BinOp::BitAnd: return IntOnly(Opcode::And);
    case BinOp::BitOr: return IntOnly(Opcode::Or);
    case BinOp::BitXor: return IntOnly(Opcode::Xor);
    case BinOp::Shl: return IntOnly(Opcode::Shl);
    case BinOp::Shr: return IntOnly(Opcode::Shr);
    case BinOp::LogAnd:
    case BinOp::LogOr: {
      // Non-short-circuit: normalize to 0/1, then and/or.
      if (L.Ty == MTy::Double || R.Ty == MTy::Double)
        error(E.Line, "logical operator requires integer operands");
      Reg Z1 = B.constI(0);
      Reg LB = B.binary(Opcode::CmpNe, L.R, Z1);
      Reg Z2 = B.constI(0);
      Reg RB = B.binary(Opcode::CmpNe, R.R, Z2);
      return {B.binary(E.BOp == BinOp::LogAnd ? Opcode::And : Opcode::Or,
                       LB, RB),
              MTy::Int};
    }
    default:
      break;
    }

    // Pointer arithmetic: ptr +/- int, ptr - ptr, pointer comparisons.
    if (isPtr(L.Ty) || isPtr(R.Ty)) {
      bool Cmp = E.BOp >= BinOp::Eq && E.BOp <= BinOp::Ge;
      if (Cmp) {
        return {B.binary(compareOp(E.BOp, /*Float=*/false), L.R, R.R),
                MTy::Int};
      }
      if (E.BOp == BinOp::Add && isPtr(L.Ty) && R.Ty == MTy::Int)
        return {B.binary(Opcode::Add, L.R, R.R), L.Ty};
      if (E.BOp == BinOp::Add && isPtr(R.Ty) && L.Ty == MTy::Int)
        return {B.binary(Opcode::Add, L.R, R.R), R.Ty};
      if (E.BOp == BinOp::Sub && isPtr(L.Ty) && R.Ty == MTy::Int)
        return {B.binary(Opcode::Sub, L.R, R.R), L.Ty};
      if (E.BOp == BinOp::Sub && isPtr(L.Ty) && L.Ty == R.Ty)
        return {B.binary(Opcode::Sub, L.R, R.R), MTy::Int};
      error(E.Line, "invalid pointer arithmetic");
      return {L.R, MTy::Int};
    }

    bool Float = L.Ty == MTy::Double || R.Ty == MTy::Double;
    if (Float) {
      L = coerce(L, MTy::Double, E.Line);
      R = coerce(R, MTy::Double, E.Line);
    }

    if (E.BOp >= BinOp::Eq && E.BOp <= BinOp::Ge)
      return {B.binary(compareOp(E.BOp, Float), L.R, R.R), MTy::Int};

    Opcode Op;
    switch (E.BOp) {
    case BinOp::Add: Op = Float ? Opcode::FAdd : Opcode::Add; break;
    case BinOp::Sub: Op = Float ? Opcode::FSub : Opcode::Sub; break;
    case BinOp::Mul: Op = Float ? Opcode::FMul : Opcode::Mul; break;
    case BinOp::Div: Op = Float ? Opcode::FDiv : Opcode::Div; break;
    default: fatal("unhandled arithmetic operator");
    }
    return {B.binary(Op, L.R, R.R), Float ? MTy::Double : MTy::Int};
  }

  static Opcode compareOp(BinOp Op, bool Float) {
    switch (Op) {
    case BinOp::Eq: return Float ? Opcode::FCmpEq : Opcode::CmpEq;
    case BinOp::Ne: return Float ? Opcode::FCmpNe : Opcode::CmpNe;
    case BinOp::Lt: return Float ? Opcode::FCmpLt : Opcode::CmpLt;
    case BinOp::Le: return Float ? Opcode::FCmpLe : Opcode::CmpLe;
    case BinOp::Gt: return Float ? Opcode::FCmpGt : Opcode::CmpGt;
    case BinOp::Ge: return Float ? Opcode::FCmpGe : Opcode::CmpGe;
    default: fatal("not a comparison");
    }
  }

  TValue lowerCall(const Expr &E) {
    int FnIdx = Callees[E.Name].Func;
    int ExtIdx = FnIdx < 0 ? Callees[E.Name].Ext : -1;
    if (FnIdx < 0 && ExtIdx < 0) {
      error(E.Line, named("call to undeclared function", E.Name));
      return {B.constI(0), MTy::Int};
    }

    std::vector<Reg> Args;
    Args.reserve(E.Args.size());
    bool Pure;
    MTy RetTy;
    if (FnIdx >= 0) {
      const ir::Function &Callee = M.function(FnIdx);
      Pure = Callee.Pure;
      RetTy = Callee.RetTy == ir::Type::F64   ? MTy::Double
              : Callee.RetTy == ir::Type::I64 ? MTy::Int
                                              : MTy::Void;
      if (E.Args.size() != Callee.NumParams) {
        error(E.Line, named("wrong number of arguments to", E.Name));
        return {B.constI(0), MTy::Int};
      }
      for (size_t I = 0; I != E.Args.size(); ++I) {
        TValue V = lowerExpr(*E.Args[I]);
        ir::Type PT = Callee.regType(static_cast<Reg>(I));
        if (PT == ir::Type::F64)
          V = coerce(V, MTy::Double, E.Line);
        else if (V.Ty == MTy::Double)
          error(E.Line, "double argument passed to int parameter");
        Args.push_back(V.R);
      }
      Reg R = B.call(M, FnIdx, std::move(Args), Pure);
      return {R, RetTy};
    }

    const ir::ExternalDecl &Decl = M.external(ExtIdx);
    Pure = Decl.Pure;
    RetTy = Decl.RetTy == ir::Type::F64 ? MTy::Double : MTy::Int;
    if (E.Args.size() != Decl.NumArgs) {
      error(E.Line, named("wrong number of arguments to", E.Name));
      return {B.constI(0), MTy::Int};
    }
    for (const Expr *A : E.Args) {
      TValue V = lowerExpr(*A);
      // Externals in this project take doubles.
      V = coerce(V, MTy::Double, E.Line);
      Args.push_back(V.R);
    }
    Reg R = B.callExt(M, ExtIdx, std::move(Args), Pure);
    return {R, RetTy};
  }

  // --- Statements --------------------------------------------------------------
  void lowerStmt(const Stmt &S) {
    if (terminated() && S.K != Stmt::Block) {
      // Unreachable code after return; lower into a fresh dead block so the
      // builder invariant holds.
      BlockId Dead = F.newBlock("dead");
      B.setInsertPoint(Dead);
    }
    switch (S.K) {
    case Stmt::Block: {
      Scopes.push();
      for (const Stmt *Inner : S.Stmts) {
        if (terminated()) {
          BlockId Dead = F.newBlock("dead");
          B.setInsertPoint(Dead);
        }
        lowerStmt(*Inner);
      }
      Scopes.pop();
      return;
    }
    case Stmt::Decl: {
      Reg R = F.newReg(irTypeOf(S.DeclTy), P.name(S.Name));
      declare(S.Name, R, S.DeclTy, S.Line);
      if (S.Init) {
        TValue V = lowerExpr(*S.Init);
        V = coerceAssign(V, S.DeclTy, S.Line);
        B.movTo(R, V.R);
      } else {
        Reg Z = S.DeclTy == MTy::Double ? B.constF(0.0) : B.constI(0);
        B.movTo(R, Z);
      }
      return;
    }
    case Stmt::Assign: {
      if (S.LHS->K == Expr::Var) {
        const VarInfo *V = Scopes.lookup(S.LHS->Name);
        if (!V) {
          error(S.Line, named("assignment to undeclared variable",
                              S.LHS->Name));
          return;
        }
        TValue RHS = lowerExpr(*S.RHS);
        RHS = coerceAssign(RHS, V->Ty, S.Line);
        B.movTo(V->R, RHS.R);
        return;
      }
      // Element assignment.
      TValue Base = lowerExpr(*S.LHS->L);
      if (!isPtr(Base.Ty)) {
        error(S.Line, "indexed assignment to a non-pointer");
        return;
      }
      TValue Idx = lowerExpr(*S.LHS->R);
      if (Idx.Ty != MTy::Int)
        error(S.Line, "index must be an int");
      MTy ElemTy = Base.Ty == MTy::IntPtr ? MTy::Int : MTy::Double;
      TValue RHS = lowerExpr(*S.RHS);
      RHS = coerceAssign(RHS, ElemTy, S.Line);
      Reg Addr = B.binary(Opcode::Add, Base.R, Idx.R);
      B.store(Addr, 0, RHS.R);
      return;
    }
    case Stmt::If: {
      TValue C = lowerExpr(*S.Cond);
      if (C.Ty == MTy::Double)
        error(S.Line, "if-condition must be an int");
      BlockId ThenB = F.newBlock("then");
      BlockId Merge = F.newBlock("endif");
      BlockId ElseB = S.Else ? F.newBlock("else") : Merge;
      B.condBr(C.R, ThenB, ElseB);
      B.setInsertPoint(ThenB);
      lowerStmt(*S.Then);
      if (!terminated())
        B.br(Merge);
      if (S.Else) {
        B.setInsertPoint(ElseB);
        lowerStmt(*S.Else);
        if (!terminated())
          B.br(Merge);
      }
      B.setInsertPoint(Merge);
      return;
    }
    case Stmt::While: {
      BlockId Header = F.newBlock("while.head");
      BlockId Body = F.newBlock("while.body");
      BlockId Exit = F.newBlock("while.exit");
      B.br(Header);
      B.setInsertPoint(Header);
      TValue C = lowerExpr(*S.Cond);
      if (C.Ty == MTy::Double)
        error(S.Line, "while-condition must be an int");
      B.condBr(C.R, Body, Exit);
      B.setInsertPoint(Body);
      Loops.push_back({Header, Exit});
      lowerStmt(*S.Body);
      Loops.pop_back();
      if (!terminated())
        B.br(Header);
      B.setInsertPoint(Exit);
      return;
    }
    case Stmt::For: {
      Scopes.push(); // the for-init declaration scopes over the loop
      if (S.ForInit)
        lowerStmt(*S.ForInit);
      BlockId Header = F.newBlock("for.head");
      BlockId Body = F.newBlock("for.body");
      BlockId Exit = F.newBlock("for.exit");
      B.br(Header);
      B.setInsertPoint(Header);
      if (S.Cond) {
        TValue C = lowerExpr(*S.Cond);
        if (C.Ty == MTy::Double)
          error(S.Line, "for-condition must be an int");
        B.condBr(C.R, Body, Exit);
      } else {
        B.br(Body);
      }
      B.setInsertPoint(Body);
      // `continue` in a for-loop must run the step; only materialize the
      // dedicated latch block when the body actually contains one, so
      // ordinary loops keep the straight body -> step -> header shape.
      if (bodyHasContinue(*S.Body)) {
        BlockId Latch = F.newBlock("for.latch");
        Loops.push_back({Latch, Exit});
        lowerStmt(*S.Body);
        Loops.pop_back();
        if (!terminated())
          B.br(Latch);
        B.setInsertPoint(Latch);
        if (S.ForStep)
          lowerStmt(*S.ForStep);
        B.br(Header);
      } else {
        Loops.push_back({Header, Exit}); // unused Continue target
        lowerStmt(*S.Body);
        Loops.pop_back();
        if (!terminated()) {
          if (S.ForStep)
            lowerStmt(*S.ForStep);
          B.br(Header);
        }
      }
      B.setInsertPoint(Exit);
      Scopes.pop();
      return;
    }
    case Stmt::Return: {
      if (D.RetTy == MTy::Void) {
        if (S.E)
          error(S.Line, "void function returns a value");
        B.ret();
        return;
      }
      if (!S.E) {
        error(S.Line, "non-void function returns nothing");
        B.ret(B.constI(0));
        return;
      }
      TValue V = lowerExpr(*S.E);
      V = coerceAssign(V, D.RetTy, S.Line);
      B.ret(V.R);
      return;
    }
    case Stmt::ExprSt:
      lowerExprOrVoid(*S.E);
      return;
    case Stmt::Break:
    case Stmt::Continue: {
      if (Loops.empty()) {
        error(S.Line, S.K == Stmt::Break ? "break outside a loop"
                                         : "continue outside a loop");
        return;
      }
      B.br(S.K == Stmt::Break ? Loops.back().Break
                              : Loops.back().Continue);
      return;
    }
    case Stmt::MakeStatic:
    case Stmt::MakeDynamic: {
      std::vector<Reg> Regs;
      Regs.reserve(S.Vars.size());
      for (Symbol Name : S.Vars) {
        const VarInfo *V = Scopes.lookup(Name);
        if (!V) {
          error(S.Line, named("annotation names undeclared variable", Name));
          continue;
        }
        Regs.push_back(V->R);
      }
      if (S.K == Stmt::MakeStatic)
        B.makeStatic(std::move(Regs), S.Policy);
      else
        B.makeDynamic(std::move(Regs));
      return;
    }
    }
  }

  TValue coerceAssign(TValue V, MTy To, unsigned Line) {
    if (V.Ty == To)
      return V;
    if (To == MTy::Double && V.Ty == MTy::Int)
      return coerce(V, MTy::Double, Line);
    if (To == MTy::Int && isPtr(V.Ty))
      return {V.R, MTy::Int}; // address stored into an int, allowed
    if (isPtr(To) && V.Ty == MTy::Int)
      return {V.R, To}; // int (address) stored into a pointer, allowed
    if (isPtr(To) && isPtr(V.Ty))
      return {V.R, To};
    error(Line, formatString("cannot assign %s to %s", mtyName(V.Ty),
                             mtyName(To)));
    return {V.R, To};
  }

  const ProgramAST &P;
  ir::Module &M;
  ir::Function &F;
  const FuncDecl &D;
  ir::IRBuilder B;
  ScopeTable &Scopes;
  const std::vector<CalleeOf> &Callees; ///< by Symbol
  std::vector<std::string> &Errors;
  /// Innermost-first stack of (continue target, break target) blocks.
  struct LoopTargets {
    BlockId Continue;
    BlockId Break;
  };
  std::vector<LoopTargets> Loops;
};

} // namespace

ir::Module lowerProgram(const ProgramAST &P,
                        std::vector<std::string> &Errors) {
  ir::Module M;
  std::vector<CalleeOf> Callees(P.Syms.size());
  for (const ExternDeclAST &E : P.Externs) {
    ir::ExternalDecl D;
    D.Name = P.name(E.Name);
    D.NumArgs = static_cast<unsigned>(E.ArgTys.size());
    D.Pure = E.Pure;
    D.RetTy = irTypeOf(E.RetTy);
    D.Line = E.Line;
    int Idx = M.declareExternal(std::move(D));
    if (Callees[E.Name].Ext < 0)
      Callees[E.Name].Ext = Idx;
  }
  // Predeclare every function (headers only) so calls resolve regardless of
  // definition order. A second definition of a name is reported and not
  // lowered.
  std::vector<uint8_t> Redefined(P.Funcs.size(), 0);
  for (size_t FI = 0; FI != P.Funcs.size(); ++FI) {
    const FuncDecl &FD = P.Funcs[FI];
    if (Callees[FD.Name].Func >= 0) {
      Errors.push_back(formatString("line %u: redefinition of function '%s'",
                                    FD.Line,
                                    std::string(P.name(FD.Name)).c_str()));
      Redefined[FI] = 1;
      continue;
    }
    ir::Function F;
    F.Name = P.name(FD.Name);
    F.RetTy = irTypeOf(FD.RetTy);
    F.Pure = FD.Pure;
    for (const ParamDecl &PD : FD.Params)
      F.newReg(irTypeOf(PD.Ty), P.name(PD.Name));
    F.NumParams = static_cast<uint32_t>(FD.Params.size());
    Callees[FD.Name].Func = M.addFunction(std::move(F));
  }
  // Lower bodies into fresh Function objects, then swap in (the
  // predeclared stubs only carried the signature).
  ScopeTable Scopes(P.Syms.size());
  for (size_t FI = 0; FI != P.Funcs.size(); ++FI) {
    if (Redefined[FI])
      continue;
    const FuncDecl &FD = P.Funcs[FI];
    ir::Function F;
    F.Name = P.name(FD.Name);
    F.RetTy = irTypeOf(FD.RetTy);
    F.Pure = FD.Pure;
    FunctionLowering L(P, M, F, FD, Scopes, Callees, Errors);
    L.run();
    M.function(Callees[FD.Name].Func) = std::move(F);
  }
  return M;
}

bool compileMiniC(const std::string &Source, ir::Module &M,
                  std::vector<std::string> &Errors) {
  ProgramAST P = parseProgram(Source, Errors);
  if (!Errors.empty())
    return false;
  M = lowerProgram(P, Errors);
  if (!Errors.empty())
    return false;
  std::string VerifyErr = ir::verifyModule(M);
  if (!VerifyErr.empty()) {
    Errors.push_back("IR verification failed: " + VerifyErr);
    return false;
  }
  return true;
}

} // namespace frontend
} // namespace dyc
