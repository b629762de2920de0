//===- frontend/Lexer.cpp --------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/Support.h"

#include <cstdlib>
#include <cstring>

namespace dyc {
namespace frontend {

namespace {

bool isDigit(char C) { return static_cast<unsigned char>(C - '0') < 10; }
bool isAlpha(char C) {
  return static_cast<unsigned char>((C | 0x20) - 'a') < 26;
}
bool isIdentStart(char C) { return isAlpha(C) || C == '_'; }
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

/// The keyword spelled \p W, or Ident.
TokKind classifyWord(std::string_view W) {
  using TK = TokKind;
  switch (W[0]) {
  case 'b':
    return W == "break" ? TK::KwBreak : TK::Ident;
  case 'c':
    return W == "continue"              ? TK::KwContinue
           : W == "cache_all"           ? TK::KwCacheAll
           : W == "cache_one"           ? TK::KwCacheOne
           : W == "cache_one_unchecked" ? TK::KwCacheOneUnchecked
           : W == "cache_indexed"       ? TK::KwCacheIndexed
                                        : TK::Ident;
  case 'd':
    return W == "double" ? TK::KwDouble : TK::Ident;
  case 'e':
    return W == "else" ? TK::KwElse : W == "extern" ? TK::KwExtern : TK::Ident;
  case 'f':
    return W == "for" ? TK::KwFor : TK::Ident;
  case 'i':
    return W == "int" ? TK::KwInt : W == "if" ? TK::KwIf : TK::Ident;
  case 'm':
    return W == "make_static"    ? TK::KwMakeStatic
           : W == "make_dynamic" ? TK::KwMakeDynamic
                                 : TK::Ident;
  case 'p':
    return W == "pure" ? TK::KwPure : TK::Ident;
  case 'r':
    return W == "return" ? TK::KwReturn : TK::Ident;
  case 'v':
    return W == "void" ? TK::KwVoid : TK::Ident;
  case 'w':
    return W == "while" ? TK::KwWhile : TK::Ident;
  default:
    return TK::Ident;
  }
}

/// strtoll's value for a run of decimal digits: saturates at INT64_MAX.
int64_t decimalValue(std::string_view Digits) {
  const uint64_t Max = INT64_MAX;
  uint64_t V = 0;
  for (char D : Digits) {
    uint64_t Digit = static_cast<uint64_t>(D - '0');
    if (V > (Max - Digit) / 10)
      return INT64_MAX;
    V = V * 10 + Digit;
  }
  return static_cast<int64_t>(V);
}

/// strtod of \p Text alone (the source is not terminated after it).
double floatValue(std::string_view Text) {
  char Buf[64];
  if (Text.size() >= sizeof(Buf))
    return std::strtod(std::string(Text).c_str(), nullptr);
  std::memcpy(Buf, Text.data(), Text.size());
  Buf[Text.size()] = '\0';
  return std::strtod(Buf, nullptr);
}

} // namespace

const char *tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof: return "end of file";
  case TokKind::Ident: return "identifier";
  case TokKind::IntLit: return "integer literal";
  case TokKind::FloatLit: return "floating literal";
  case TokKind::KwInt: return "'int'";
  case TokKind::KwDouble: return "'double'";
  case TokKind::KwVoid: return "'void'";
  case TokKind::KwIf: return "'if'";
  case TokKind::KwElse: return "'else'";
  case TokKind::KwWhile: return "'while'";
  case TokKind::KwFor: return "'for'";
  case TokKind::KwReturn: return "'return'";
  case TokKind::KwBreak: return "'break'";
  case TokKind::KwContinue: return "'continue'";
  case TokKind::KwExtern: return "'extern'";
  case TokKind::KwPure: return "'pure'";
  case TokKind::KwMakeStatic: return "'make_static'";
  case TokKind::KwMakeDynamic: return "'make_dynamic'";
  case TokKind::KwCacheAll: return "'cache_all'";
  case TokKind::KwCacheOne: return "'cache_one'";
  case TokKind::KwCacheOneUnchecked: return "'cache_one_unchecked'";
  case TokKind::KwCacheIndexed: return "'cache_indexed'";
  case TokKind::LParen: return "'('";
  case TokKind::RParen: return "')'";
  case TokKind::LBrace: return "'{'";
  case TokKind::RBrace: return "'}'";
  case TokKind::LBracket: return "'['";
  case TokKind::RBracket: return "']'";
  case TokKind::AtLBracket: return "'@['";
  case TokKind::Comma: return "','";
  case TokKind::Semi: return "';'";
  case TokKind::Colon: return "':'";
  case TokKind::Star: return "'*'";
  case TokKind::Assign: return "'='";
  case TokKind::Plus: return "'+'";
  case TokKind::Minus: return "'-'";
  case TokKind::Slash: return "'/'";
  case TokKind::Percent: return "'%'";
  case TokKind::EqEq: return "'=='";
  case TokKind::NotEq: return "'!='";
  case TokKind::Lt: return "'<'";
  case TokKind::Le: return "'<='";
  case TokKind::Gt: return "'>'";
  case TokKind::Ge: return "'>='";
  case TokKind::AmpAmp: return "'&&'";
  case TokKind::PipePipe: return "'||'";
  case TokKind::Bang: return "'!'";
  case TokKind::Amp: return "'&'";
  case TokKind::Pipe: return "'|'";
  case TokKind::Caret: return "'^'";
  case TokKind::Shl: return "'<<'";
  case TokKind::Shr: return "'>>'";
  case TokKind::PlusPlus: return "'++'";
  case TokKind::MinusMinus: return "'--'";
  }
  return "<bad-token>";
}

std::vector<Token> lex(std::string_view Source,
                       std::vector<std::string> &Errors) {
  std::vector<Token> Toks;
  // MiniC runs at three to five source bytes per token.
  Toks.reserve(Source.size() / 3 + 16);
  const char *P = Source.data();
  const char *const End = P + Source.size();
  unsigned Line = 1;
  auto At = [&](const char *Q) -> char { return Q < End ? *Q : '\0'; };
  auto Push = [&](TokKind K, const char *Start) -> Token & {
    Token &T = Toks.emplace_back();
    T.Kind = K;
    T.Text = std::string_view(Start, static_cast<size_t>(P - Start));
    T.Line = Line;
    return T;
  };

  while (P < End) {
    const char *Start = P;
    char C = *P;
    // Whitespace.
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      Line += C == '\n';
      ++P;
      continue;
    }
    // Identifiers and keywords.
    if (isIdentStart(C)) {
      while (++P < End && isIdentChar(*P)) {
      }
      std::string_view Word(Start, static_cast<size_t>(P - Start));
      Push(classifyWord(Word), Start);
      continue;
    }
    char Next = At(P + 1);
    // Numbers.
    if (isDigit(C) || (C == '.' && isDigit(Next))) {
      bool IsFloat = false;
      while (P < End) {
        char D = *P;
        if (isDigit(D)) {
          ++P;
        } else if (D == '.' && !IsFloat) {
          IsFloat = true;
          ++P;
        } else if ((D == 'e' || D == 'E') &&
                   (isDigit(At(P + 1)) ||
                    ((At(P + 1) == '+' || At(P + 1) == '-') &&
                     isDigit(At(P + 2))))) {
          IsFloat = true;
          P += At(P + 1) == '+' || At(P + 1) == '-' ? 2 : 1;
          while (P < End && isDigit(*P))
            ++P;
          break;
        } else {
          break;
        }
      }
      Token &T = Push(IsFloat ? TokKind::FloatLit : TokKind::IntLit, Start);
      if (IsFloat)
        T.FloatVal = floatValue(T.Text);
      else
        T.IntVal = decimalValue(T.Text);
      continue;
    }
    // Comments.
    if (C == '/' && Next == '/') {
      const void *NL = std::memchr(P, '\n', static_cast<size_t>(End - P));
      P = NL ? static_cast<const char *>(NL) : End;
      continue;
    }
    if (C == '/' && Next == '*') {
      P += 2;
      while (P < End && !(*P == '*' && At(P + 1) == '/')) {
        Line += *P == '\n';
        ++P;
      }
      if (P >= End)
        Errors.push_back(formatString("line %u: unterminated comment", Line));
      else
        P += 2;
      continue;
    }
    // Operators and punctuation; a two-byte operator consumes Next too.
    auto Two = [&](TokKind K) {
      ++P;
      return K;
    };
    TokKind K = TokKind::Eof;
    switch (C) {
    case '(': K = TokKind::LParen; break;
    case ')': K = TokKind::RParen; break;
    case '{': K = TokKind::LBrace; break;
    case '}': K = TokKind::RBrace; break;
    case '[': K = TokKind::LBracket; break;
    case ']': K = TokKind::RBracket; break;
    case ',': K = TokKind::Comma; break;
    case ';': K = TokKind::Semi; break;
    case ':': K = TokKind::Colon; break;
    case '*': K = TokKind::Star; break;
    case '/': K = TokKind::Slash; break;
    case '%': K = TokKind::Percent; break;
    case '^': K = TokKind::Caret; break;
    case '=': K = Next == '=' ? Two(TokKind::EqEq) : TokKind::Assign; break;
    case '!': K = Next == '=' ? Two(TokKind::NotEq) : TokKind::Bang; break;
    case '+': K = Next == '+' ? Two(TokKind::PlusPlus) : TokKind::Plus; break;
    case '-':
      K = Next == '-' ? Two(TokKind::MinusMinus) : TokKind::Minus;
      break;
    case '&': K = Next == '&' ? Two(TokKind::AmpAmp) : TokKind::Amp; break;
    case '|': K = Next == '|' ? Two(TokKind::PipePipe) : TokKind::Pipe; break;
    case '<':
      K = Next == '='   ? Two(TokKind::Le)
          : Next == '<' ? Two(TokKind::Shl)
                        : TokKind::Lt;
      break;
    case '>':
      K = Next == '='   ? Two(TokKind::Ge)
          : Next == '>' ? Two(TokKind::Shr)
                        : TokKind::Gt;
      break;
    case '@':
      if (Next == '[') {
        K = Two(TokKind::AtLBracket);
        break;
      }
      [[fallthrough]];
    default:
      Errors.push_back(
          formatString("line %u: unexpected character '%c'", Line, C));
      ++P;
      continue;
    }
    ++P;
    Push(K, Start);
  }

  Token &Eof = Toks.emplace_back();
  Eof.Kind = TokKind::Eof;
  Eof.Line = Line;
  return Toks;
}

} // namespace frontend
} // namespace dyc
