//===- support/Support.h - Common utilities for the DyC libraries -------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared low-level utilities: fatal-error reporting, a 64-bit machine word
/// type used uniformly by the IR, the VM, and the run-time specializer, and
/// small string/format helpers.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SUPPORT_SUPPORT_H
#define DYC_SUPPORT_SUPPORT_H

#include <cassert>
#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace dyc {

/// Prints \p Msg to stderr and aborts. Used for invariant violations that
/// must be diagnosed even in release builds.
[[noreturn]] void fatal(const std::string &Msg);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends one counter to the --stats line \p S as the word
/// "PrefixLabel=V", after a space unless \p S is empty or ends in '['. A
/// label that starts with '(' or '/' continues the word before it: "(memo"
/// appends "(memo V)" and "/" appends "/V".
void appendCounter(std::string &S, const char *Label, uint64_t V,
                   const char *Prefix = "");

/// A 64-bit machine word. Registers, memory cells, and run-time-constant
/// values are all Words; the instruction opcode determines whether the bits
/// are interpreted as a signed integer or an IEEE double.
struct Word {
  uint64_t Bits = 0;

  Word() = default;

  /// Constructs from a raw bit pattern.
  constexpr explicit Word(uint64_t Raw) : Bits(Raw) {}

  static Word fromInt(int64_t V) {
    Word W;
    W.Bits = static_cast<uint64_t>(V);
    return W;
  }

  static Word fromFloat(double V) {
    Word W;
    static_assert(sizeof(double) == sizeof(uint64_t));
    __builtin_memcpy(&W.Bits, &V, sizeof(double));
    return W;
  }

  int64_t asInt() const { return static_cast<int64_t>(Bits); }

  double asFloat() const {
    double D;
    __builtin_memcpy(&D, &Bits, sizeof(double));
    return D;
  }

  bool operator==(const Word &O) const { return Bits == O.Bits; }
  bool operator!=(const Word &O) const { return Bits != O.Bits; }
};

/// Guest integer arithmetic. The simulated machine's integers wrap modulo
/// 2^64 (two's complement), so Add, Sub, Mul and Neg compute in uint64_t
/// and never reach signed-overflow undefined behaviour on the host. The
/// one overflowing quotient, INT64_MIN / -1, wraps to INT64_MIN, and its
/// remainder is 0. Callers check for a zero divisor first: that is a guest
/// fault, not a value. Every place the host evaluates guest arithmetic —
/// the op table's values (support/OpTable.def), which both VM engines and
/// ir::evalPureOp (constant folding and the specializer) compute, and
/// address formation — goes through these.
inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}
inline int64_t wrapDiv(int64_t A, int64_t B) {
  assert(B != 0 && "guest division by zero is a fault, not a value");
  return B == -1 ? wrapNeg(A) : A / B;
}
inline int64_t wrapRem(int64_t A, int64_t B) {
  assert(B != 0 && "guest remainder by zero is a fault, not a value");
  return B == -1 ? 0 : A % B;
}
/// Guest float-to-int conversion truncates toward zero. NaN and values
/// outside [-2^63, 2^63) give INT64_MIN, the "integer indefinite" that
/// x86-64's cvttsd2si returns, instead of the host's undefined behaviour.
inline int64_t wrapFToI(double X) {
  if (!(X >= -0x1p63 && X < 0x1p63))
    return INT64_MIN;
  return static_cast<int64_t>(X);
}

/// A non-owning view of a Word sequence. The run-time's dispatch path
/// composes cache keys into stack buffers and passes them around as spans,
/// so a dispatch never heap-allocates; owned std::vector<Word> keys convert
/// implicitly wherever a span is expected.
struct WordSpan {
  const Word *Data = nullptr;
  size_t Count = 0;

  WordSpan() = default;
  WordSpan(const Word *D, size_t N) : Data(D), Count(N) {}
  WordSpan(const std::vector<Word> &V) : Data(V.data()), Count(V.size()) {}

  const Word *begin() const { return Data; }
  const Word *end() const { return Data + Count; }
  const Word &operator[](size_t I) const {
    assert(I < Count && "span index out of range");
    return Data[I];
  }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// The tail starting at \p From (the dispatch path carves the promoted
  /// values out of the full baked+promoted key this way).
  WordSpan subspan(size_t From) const {
    assert(From <= Count && "subspan start out of range");
    return WordSpan(Data + From, Count - From);
  }
};

inline bool operator==(WordSpan A, WordSpan B) {
  if (A.Count != B.Count)
    return false;
  for (size_t I = 0; I != A.Count; ++I)
    if (A.Data[I] != B.Data[I])
      return false;
  return true;
}
inline bool operator!=(WordSpan A, WordSpan B) { return !(A == B); }

/// FNV-1a over a sequence of 64-bit words; the run-time code cache and the
/// specializer's memoization tables key on static-value tuples.
uint64_t hashWords(const Word *Data, size_t N, uint64_t Seed = 0xcbf29ce484222325ULL);

inline uint64_t hashWords(const std::vector<Word> &Ws, uint64_t Seed = 0xcbf29ce484222325ULL) {
  return hashWords(Ws.data(), Ws.size(), Seed);
}

inline uint64_t hashWords(WordSpan Ws, uint64_t Seed = 0xcbf29ce484222325ULL) {
  return hashWords(Ws.Data, Ws.Count, Seed);
}

/// A fixed-capacity key buffer for the dispatch fast path: dispatch keys
/// (baked site values + promoted register values) are almost always a
/// handful of words, so composing them here performs no heap allocation.
/// Oversized keys spill to an owned vector whose capacity is retained
/// across clear(), so even the spill path allocates at most once.
class SmallKeyBuf {
public:
  static constexpr size_t InlineWords = 16;

  void clear() { N = 0; }

  void push_back(Word W) {
    if (N < InlineWords) {
      Inl[N++] = W;
      return;
    }
    if (N == InlineWords)
      Spill.assign(Inl, Inl + InlineWords);
    Spill.push_back(W);
    ++N;
  }

  void append(const Word *D, size_t Count) {
    for (size_t I = 0; I != Count; ++I)
      push_back(D[I]);
  }

  size_t size() const { return N; }
  const Word *data() const { return N <= InlineWords ? Inl : Spill.data(); }
  WordSpan span() const { return WordSpan(data(), N); }

private:
  Word Inl[InlineWords];
  std::vector<Word> Spill;
  size_t N = 0;
};

/// Returns true if \p V is a (positive) power of two.
inline bool isPowerOf2(int64_t V) { return V > 0 && (V & (V - 1)) == 0; }

/// Log2 of a power of two.
inline unsigned log2OfPow2(int64_t V) {
  assert(isPowerOf2(V) && "not a power of two");
  return static_cast<unsigned>(__builtin_ctzll(static_cast<uint64_t>(V)));
}

/// A tiny deterministic RNG (xorshift*) used by workload input generators so
/// every run of the benchmark harness sees identical inputs.
class DeterministicRNG {
public:
  explicit DeterministicRNG(uint64_t Seed = 0x9e3779b97f4a7c15ULL)
      : State(Seed ? Seed : 1) {}

  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545f4914f6cdd1dULL;
  }

  /// Uniform integer in [0, Bound).
  uint64_t nextBelow(uint64_t Bound) { return Bound ? next() % Bound : 0; }

  /// Uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

private:
  uint64_t State;
};

} // namespace dyc

#endif // DYC_SUPPORT_SUPPORT_H
