//===- frontend/Lexer.h - MiniC tokenizer --------------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for MiniC, the annotated C subset the workloads are written
/// in. DyC-specific lexemes: `make_static`, `make_dynamic`, the cache
/// policies, the `@[` static-load marker, and the `pure` function
/// qualifier.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_FRONTEND_LEXER_H
#define DYC_FRONTEND_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dyc {
namespace frontend {

enum class TokKind : uint8_t {
  Eof,
  Ident,
  IntLit,
  FloatLit,

  // Keywords.
  KwInt, KwDouble, KwVoid, KwIf, KwElse, KwWhile, KwFor, KwReturn,
  KwBreak, KwContinue,
  KwExtern, KwPure,
  KwMakeStatic, KwMakeDynamic,
  KwCacheAll, KwCacheOne, KwCacheOneUnchecked, KwCacheIndexed,

  // Punctuation and operators.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  AtLBracket, ///< `@[` — static-load indexing
  Comma, Semi, Colon, Star,
  Assign, Plus, Minus, Slash, Percent,
  EqEq, NotEq, Lt, Le, Gt, Ge,
  AmpAmp, PipePipe, Bang,
  Amp, Pipe, Caret, Shl, Shr,
  PlusPlus, MinusMinus,
};

/// One token with its 1-based source line. Text views the source, so
/// tokens are valid only while the source is.
struct Token {
  std::string_view Text;
  int64_t IntVal = 0;
  double FloatVal = 0;
  unsigned Line = 0;
  TokKind Kind = TokKind::Eof;
};

/// Tokenizes \p Source. On a lexical error, appends a message to
/// \p Errors and skips the offending character.
std::vector<Token> lex(std::string_view Source,
                       std::vector<std::string> &Errors);

const char *tokKindName(TokKind K);

} // namespace frontend
} // namespace dyc

#endif // DYC_FRONTEND_LEXER_H
