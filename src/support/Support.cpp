//===- support/Support.cpp ------------------------------------------------===//

#include "support/Support.h"

#include <cstdio>
#include <cstdlib>

namespace dyc {

void fatal(const std::string &Msg) {
  std::fprintf(stderr, "dyc fatal error: %s\n", Msg.c_str());
  std::abort();
}

std::string formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (Len > 0) {
    Out.resize(static_cast<size_t>(Len) + 1);
    std::vsnprintf(Out.data(), Out.size(), Fmt, Args);
    Out.resize(static_cast<size_t>(Len));
  }
  va_end(Args);
  return Out;
}

void appendCounter(std::string &S, const char *Label, uint64_t V,
                   const char *Prefix) {
  std::string N = std::to_string(V);
  if (*Label == '(')
    S += std::string(Label) + ' ' + N + ')';
  else if (*Label == '/')
    S += Label + N;
  else
    S += (S.empty() || S.back() == '[' ? "" : " ") + std::string(Prefix) +
         Label + '=' + N;
}

uint64_t hashWords(const Word *Data, size_t N, uint64_t Seed) {
  uint64_t H = Seed;
  for (size_t I = 0; I != N; ++I) {
    H ^= Data[I].Bits;
    H *= 0x100000001b3ULL;
    H ^= H >> 32;
  }
  return H;
}

} // namespace dyc
