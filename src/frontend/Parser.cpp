//===- frontend/Parser.cpp -------------------------------------------------------===//

#include "frontend/Parser.h"

#include "support/Support.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace dyc {
namespace frontend {

const char *mtyName(MTy T) {
  switch (T) {
  case MTy::Int: return "int";
  case MTy::Double: return "double";
  case MTy::IntPtr: return "int*";
  case MTy::DoublePtr: return "double*";
  case MTy::Void: return "void";
  }
  return "<bad-type>";
}

Symbol SymbolTable::intern(std::string_view Name) {
  uint32_t H = 2166136261u; // FNV-1a
  for (char C : Name)
    H = (H ^ static_cast<unsigned char>(C)) * 16777619u;
  if (Slots.empty()) {
    Slots.assign(256, 0);
    Entries.reserve(128);
  }
  size_t Mask = Slots.size() - 1;
  size_t I = H & Mask;
  for (; Slots[I]; I = (I + 1) & Mask) {
    const Entry &E = Entries[Slots[I] - 1];
    if (E.Hash == H && std::string_view(E.Data, E.Len) == Name)
      return Slots[I] - 1;
  }
  char *Copy = static_cast<char *>(Chars.allocate(Name.size(), 1));
  if (!Name.empty())
    std::memcpy(Copy, Name.data(), Name.size());
  Entries.push_back({Copy, static_cast<uint32_t>(Name.size()), H});
  Slots[I] = size();
  if (2 * Entries.size() > Slots.size())
    rehash();
  return size() - 1;
}

void SymbolTable::rehash() {
  Slots.assign(2 * Slots.size(), 0);
  size_t Mask = Slots.size() - 1;
  for (uint32_t S = 0; S != size(); ++S) {
    size_t I = Entries[S].Hash & Mask;
    while (Slots[I])
      I = (I + 1) & Mask;
    Slots[I] = S + 1;
  }
}

namespace {

/// A child list under construction in the arena. A full array is left
/// behind, not freed, so a list of N elements costs under 2N slots of
/// arena and no heap call.
template <class T> class ListBuilder {
public:
  void push(BumpArena &A, const T &V) {
    if (Size == Cap) {
      Cap = Cap ? 2 * Cap : 4;
      T *Grown = static_cast<T *>(A.allocate(Cap * sizeof(T), alignof(T)));
      if (Size)
        std::memcpy(static_cast<void *>(Grown), Data, Size * sizeof(T));
      Data = Grown;
    }
    new (Data + Size++) T(V);
  }
  std::span<const T> list() const { return {Data, Size}; }

private:
  static_assert(std::is_trivially_copyable_v<T>);
  T *Data = nullptr;
  size_t Size = 0;
  size_t Cap = 0;
};

class Parser {
public:
  Parser(std::vector<Token> Toks, ProgramAST &P,
         std::vector<std::string> &Errors)
      : Toks(std::move(Toks)), P(P), Errors(Errors) {}

  void parse() {
    ListBuilder<ExternDeclAST> Externs;
    ListBuilder<FuncDecl> Funcs;
    while (!at(TokKind::Eof)) {
      size_t Before = Pos;
      if (at(TokKind::KwExtern)) {
        Externs.push(P.Arena, parseExtern());
      } else {
        FuncDecl F;
        if (parseFunction(F))
          Funcs.push(P.Arena, F);
      }
      if (Pos == Before)
        advance(); // ensure progress after an error
    }
    P.Externs = Externs.list();
    P.Funcs = Funcs.list();
  }

private:
  const Token &cur() const { return Toks[Pos]; }
  bool at(TokKind K) const { return cur().Kind == K; }
  void advance() {
    if (!at(TokKind::Eof))
      ++Pos;
  }

  bool accept(TokKind K) {
    if (!at(K))
      return false;
    advance();
    return true;
  }

  bool expect(TokKind K) {
    if (accept(K))
      return true;
    error(formatString("expected %s, found %s", tokKindName(K),
                       tokKindName(cur().Kind)));
    return false;
  }

  void error(const std::string &Msg) {
    if (TooDeep)
      return; // the nesting error is the last one reported
    Errors.push_back(formatString("line %u: %s", cur().Line, Msg.c_str()));
  }

  /// One level of the parser's descent, a statement or an operand, for
  /// its scope; ok() says whether it fits MaxNestingDepth.
  struct Nest {
    Parser &P;
    explicit Nest(Parser &P) : P(P) { ++P.Depth; }
    ~Nest() { --P.Depth; }
    bool ok() const { return P.fits(0); }
  };

  /// Whether an expression tree of height \p Height built at the current
  /// descent fits MaxNestingDepth. If not, reports it (once) and skips to
  /// the end of input, so the parse unwinds without descending further.
  bool fits(unsigned Height) {
    if (Depth + Height <= MaxNestingDepth)
      return true;
    error(formatString("nesting deeper than %u levels", MaxNestingDepth));
    TooDeep = true;
    Pos = Toks.size() - 1; // the end-of-file token
    return false;
  }

  /// Sets \p E's height, one more than its deepest operand's
  /// (\p OperandHeight), and checks it.
  Expr *sized(Expr *E, unsigned OperandHeight) {
    E->Depth = static_cast<uint16_t>(OperandHeight + 1);
    fits(E->Depth);
    return E;
  }

  /// The current token's text as a name (an identifier where the grammar
  /// is followed).
  Symbol curName() { return P.Syms.intern(cur().Text); }

  template <class T> T *make() {
    return new (P.Arena.allocate(sizeof(T), alignof(T))) T();
  }

  bool atType() const {
    return at(TokKind::KwInt) || at(TokKind::KwDouble) || at(TokKind::KwVoid);
  }

  /// type := ('int' | 'double' | 'void') '*'?
  MTy parseType() {
    MTy Base;
    if (accept(TokKind::KwInt))
      Base = MTy::Int;
    else if (accept(TokKind::KwDouble))
      Base = MTy::Double;
    else if (accept(TokKind::KwVoid))
      return MTy::Void;
    else {
      error("expected a type");
      return MTy::Int;
    }
    if (accept(TokKind::Star))
      return Base == MTy::Int ? MTy::IntPtr : MTy::DoublePtr;
    return Base;
  }

  ExternDeclAST parseExtern() {
    ExternDeclAST D;
    D.Line = cur().Line;
    expect(TokKind::KwExtern);
    D.Pure = accept(TokKind::KwPure);
    D.RetTy = parseType();
    D.Name = curName();
    expect(TokKind::Ident);
    expect(TokKind::LParen);
    ListBuilder<MTy> ArgTys;
    if (!at(TokKind::RParen)) {
      do {
        ArgTys.push(P.Arena, parseType());
        // Optional parameter name in the prototype.
        if (at(TokKind::Ident))
          advance();
      } while (accept(TokKind::Comma));
    }
    D.ArgTys = ArgTys.list();
    expect(TokKind::RParen);
    expect(TokKind::Semi);
    return D;
  }

  /// Parses a definition into \p F; false if it has no name.
  bool parseFunction(FuncDecl &F) {
    F.Line = cur().Line;
    F.Pure = accept(TokKind::KwPure);
    F.RetTy = parseType();
    F.Name = curName();
    if (!expect(TokKind::Ident))
      return false;
    expect(TokKind::LParen);
    ListBuilder<ParamDecl> Params;
    if (!at(TokKind::RParen)) {
      do {
        ParamDecl PD;
        PD.Ty = parseType();
        PD.Name = curName();
        expect(TokKind::Ident);
        Params.push(P.Arena, PD);
      } while (accept(TokKind::Comma));
    }
    F.Params = Params.list();
    expect(TokKind::RParen);
    F.Body = parseBlock();
    return true;
  }

  Stmt *makeStmt(Stmt::Kind K) {
    Stmt *S = make<Stmt>();
    S->K = K;
    S->Line = cur().Line;
    return S;
  }

  Stmt *parseBlock() {
    Stmt *S = makeStmt(Stmt::Block);
    expect(TokKind::LBrace);
    ListBuilder<Stmt *> Stmts;
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      size_t Before = Pos;
      if (Stmt *Inner = parseStmt())
        Stmts.push(P.Arena, Inner);
      if (Pos == Before)
        advance();
    }
    S->Stmts = Stmts.list();
    expect(TokKind::RBrace);
    return S;
  }

  /// simple := decl | assignment | expr — without the trailing ';'
  /// (shared by statements and for-headers).
  Stmt *parseSimple() {
    if (atType()) {
      Stmt *S = makeStmt(Stmt::Decl);
      S->DeclTy = parseType();
      S->Name = curName();
      expect(TokKind::Ident);
      if (accept(TokKind::Assign))
        S->Init = parseExpr();
      return S;
    }
    Expr *E = parseExpr();
    if (!E)
      return nullptr;
    if (accept(TokKind::Assign)) {
      if (E->K != Expr::Var && E->K != Expr::Index) {
        error("assignment target must be a variable or an element");
        return nullptr;
      }
      Stmt *S = makeStmt(Stmt::Assign);
      S->LHS = E;
      S->RHS = parseExpr();
      return S;
    }
    if (at(TokKind::PlusPlus) || at(TokKind::MinusMinus)) {
      // Desugar v++ / v-- into v = v +/- 1.
      bool Inc = at(TokKind::PlusPlus);
      advance();
      if (E->K != Expr::Var) {
        error("++/-- applies only to variables");
        return nullptr;
      }
      Stmt *S = makeStmt(Stmt::Assign);
      Expr *RHS = make<Expr>();
      RHS->K = Expr::Binary;
      RHS->Line = S->Line;
      RHS->BOp = Inc ? BinOp::Add : BinOp::Sub;
      Expr *V = make<Expr>();
      V->K = Expr::Var;
      V->Name = E->Name;
      V->Line = S->Line;
      Expr *One = make<Expr>();
      One->K = Expr::IntLit;
      One->IntVal = 1;
      One->Line = S->Line;
      RHS->L = V;
      RHS->R = One;
      RHS->Depth = 2;
      S->LHS = E;
      S->RHS = RHS;
      return S;
    }
    Stmt *S = makeStmt(Stmt::ExprSt);
    S->E = E;
    return S;
  }

  Stmt *parseStmt() {
    Nest N(*this);
    if (!N.ok())
      return nullptr;
    if (at(TokKind::LBrace))
      return parseBlock();
    if (accept(TokKind::Semi))
      return makeStmt(Stmt::Block); // empty statement

    if (at(TokKind::KwIf)) {
      Stmt *S = makeStmt(Stmt::If);
      advance();
      expect(TokKind::LParen);
      S->Cond = parseExpr();
      expect(TokKind::RParen);
      S->Then = parseStmt();
      if (accept(TokKind::KwElse))
        S->Else = parseStmt();
      return S;
    }
    if (at(TokKind::KwWhile)) {
      Stmt *S = makeStmt(Stmt::While);
      advance();
      expect(TokKind::LParen);
      S->Cond = parseExpr();
      expect(TokKind::RParen);
      S->Body = parseStmt();
      return S;
    }
    if (at(TokKind::KwFor)) {
      Stmt *S = makeStmt(Stmt::For);
      advance();
      expect(TokKind::LParen);
      if (!at(TokKind::Semi))
        S->ForInit = parseSimple();
      expect(TokKind::Semi);
      if (!at(TokKind::Semi))
        S->Cond = parseExpr();
      expect(TokKind::Semi);
      if (!at(TokKind::RParen))
        S->ForStep = parseSimple();
      expect(TokKind::RParen);
      S->Body = parseStmt();
      return S;
    }
    if (at(TokKind::KwBreak)) {
      Stmt *S = makeStmt(Stmt::Break);
      advance();
      expect(TokKind::Semi);
      return S;
    }
    if (at(TokKind::KwContinue)) {
      Stmt *S = makeStmt(Stmt::Continue);
      advance();
      expect(TokKind::Semi);
      return S;
    }
    if (at(TokKind::KwReturn)) {
      Stmt *S = makeStmt(Stmt::Return);
      advance();
      if (!at(TokKind::Semi))
        S->E = parseExpr();
      expect(TokKind::Semi);
      return S;
    }
    if (at(TokKind::KwMakeStatic) || at(TokKind::KwMakeDynamic)) {
      bool IsStatic = at(TokKind::KwMakeStatic);
      Stmt *S = makeStmt(IsStatic ? Stmt::MakeStatic : Stmt::MakeDynamic);
      advance();
      expect(TokKind::LParen);
      ListBuilder<Symbol> Vars;
      do {
        Vars.push(P.Arena, curName());
        expect(TokKind::Ident);
      } while (accept(TokKind::Comma));
      S->Vars = Vars.list();
      if (IsStatic && accept(TokKind::Colon)) {
        if (accept(TokKind::KwCacheAll))
          S->Policy = ir::CachePolicy::CacheAll;
        else if (accept(TokKind::KwCacheOne))
          S->Policy = ir::CachePolicy::CacheOne;
        else if (accept(TokKind::KwCacheOneUnchecked))
          S->Policy = ir::CachePolicy::CacheOneUnchecked;
        else if (accept(TokKind::KwCacheIndexed))
          S->Policy = ir::CachePolicy::CacheIndexed;
        else
          error("expected a cache policy after ':'");
      }
      expect(TokKind::RParen);
      expect(TokKind::Semi);
      return S;
    }

    Stmt *S = parseSimple();
    expect(TokKind::Semi);
    return S;
  }

  // --- Expressions, precedence climbing -------------------------------------

  Expr *makeExpr(Expr::Kind K) {
    Expr *E = make<Expr>();
    E->K = K;
    E->Line = cur().Line;
    return E;
  }

  /// Binding powers; higher binds tighter.
  static int precedenceOf(TokKind K) {
    switch (K) {
    case TokKind::PipePipe: return 1;
    case TokKind::AmpAmp: return 2;
    case TokKind::Pipe: return 3;
    case TokKind::Caret: return 4;
    case TokKind::Amp: return 5;
    case TokKind::EqEq: case TokKind::NotEq: return 6;
    case TokKind::Lt: case TokKind::Le:
    case TokKind::Gt: case TokKind::Ge: return 7;
    case TokKind::Shl: case TokKind::Shr: return 8;
    case TokKind::Plus: case TokKind::Minus: return 9;
    case TokKind::Star: case TokKind::Slash: case TokKind::Percent: return 10;
    default: return -1;
    }
  }

  static BinOp binOpOf(TokKind K) {
    switch (K) {
    case TokKind::PipePipe: return BinOp::LogOr;
    case TokKind::AmpAmp: return BinOp::LogAnd;
    case TokKind::Pipe: return BinOp::BitOr;
    case TokKind::Caret: return BinOp::BitXor;
    case TokKind::Amp: return BinOp::BitAnd;
    case TokKind::EqEq: return BinOp::Eq;
    case TokKind::NotEq: return BinOp::Ne;
    case TokKind::Lt: return BinOp::Lt;
    case TokKind::Le: return BinOp::Le;
    case TokKind::Gt: return BinOp::Gt;
    case TokKind::Ge: return BinOp::Ge;
    case TokKind::Shl: return BinOp::Shl;
    case TokKind::Shr: return BinOp::Shr;
    case TokKind::Plus: return BinOp::Add;
    case TokKind::Minus: return BinOp::Sub;
    case TokKind::Star: return BinOp::Mul;
    case TokKind::Slash: return BinOp::Div;
    case TokKind::Percent: return BinOp::Rem;
    default: fatal("not a binary operator token");
    }
  }

  Expr *parseExpr(int MinPrec = 0) {
    Expr *L = parseUnary();
    while (true) {
      int Prec = precedenceOf(cur().Kind);
      if (Prec < 0 || Prec < MinPrec)
        return L;
      BinOp Op = binOpOf(cur().Kind);
      Expr *E = makeExpr(Expr::Binary);
      advance();
      E->BOp = Op;
      E->L = L;
      E->R = parseExpr(Prec + 1); // left-associative
      L = sized(E, std::max(E->L->Depth, E->R->Depth));
    }
  }

  /// Every operand, and so every nested sub-expression, starts here.
  Expr *parseUnary() {
    Nest N(*this);
    if (!N.ok())
      return makeExpr(Expr::IntLit);
    if (at(TokKind::Minus)) {
      Expr *E = makeExpr(Expr::Unary);
      advance();
      E->UOp = UnOp::Neg;
      E->L = parseUnary();
      return sized(E, E->L->Depth);
    }
    if (at(TokKind::Bang)) {
      Expr *E = makeExpr(Expr::Unary);
      advance();
      E->UOp = UnOp::Not;
      E->L = parseUnary();
      return sized(E, E->L->Depth);
    }
    // Cast: '(' type ')' unary — lookahead for a type after '('.
    if (at(TokKind::LParen)) {
      TokKind Next = Toks[Pos + 1].Kind;
      if (Next == TokKind::KwInt || Next == TokKind::KwDouble) {
        Expr *E = makeExpr(Expr::Cast);
        advance(); // '('
        E->CastTo = parseType();
        expect(TokKind::RParen);
        E->L = parseUnary();
        return sized(E, E->L->Depth);
      }
    }
    return parsePostfix();
  }

  Expr *parsePostfix() {
    Expr *E = parsePrimary();
    while (at(TokKind::LBracket) || at(TokKind::AtLBracket)) {
      bool Static = at(TokKind::AtLBracket);
      Expr *Idx = makeExpr(Expr::Index);
      advance();
      Idx->StaticIndex = Static;
      Idx->L = E;
      Idx->R = parseExpr();
      expect(TokKind::RBracket);
      E = sized(Idx, std::max(Idx->L->Depth, Idx->R->Depth));
    }
    return E;
  }

  Expr *parsePrimary() {
    if (at(TokKind::IntLit)) {
      Expr *E = makeExpr(Expr::IntLit);
      E->IntVal = cur().IntVal;
      advance();
      return E;
    }
    if (at(TokKind::FloatLit)) {
      Expr *E = makeExpr(Expr::FloatLit);
      E->FloatVal = cur().FloatVal;
      advance();
      return E;
    }
    if (at(TokKind::Ident)) {
      Expr *E = makeExpr(Expr::Var);
      E->Name = curName();
      advance();
      if (accept(TokKind::LParen)) {
        E->K = Expr::Call;
        ListBuilder<Expr *> Args;
        unsigned ArgHeight = 0;
        if (!at(TokKind::RParen)) {
          do {
            Expr *A = parseExpr();
            Args.push(P.Arena, A);
            ArgHeight = std::max<unsigned>(ArgHeight, A->Depth);
          } while (accept(TokKind::Comma));
        }
        E->Args = Args.list();
        sized(E, ArgHeight);
        expect(TokKind::RParen);
      }
      return E;
    }
    if (accept(TokKind::LParen)) {
      Expr *E = parseExpr();
      expect(TokKind::RParen);
      return E;
    }
    error(formatString("expected an expression, found %s",
                       tokKindName(cur().Kind)));
    return makeExpr(Expr::IntLit);
  }

  std::vector<Token> Toks;
  ProgramAST &P;
  std::vector<std::string> &Errors;
  size_t Pos = 0;
  unsigned Depth = 0;   ///< statements and operands being parsed
  bool TooDeep = false; ///< the nesting error was reported
};

} // namespace

ProgramAST parseProgram(std::string_view Source,
                        std::vector<std::string> &Errors) {
  ProgramAST P;
  Parser(lex(Source, Errors), P, Errors).parse();
  return P;
}

} // namespace frontend
} // namespace dyc
