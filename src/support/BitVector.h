//===- support/BitVector.h - Dense bit vector --------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense fixed-size bit vector used by the dataflow analyses (liveness,
/// reaching definitions). Supports the set-algebra operations iterative
/// dataflow needs, with change detection for worklist convergence.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SUPPORT_BITVECTOR_H
#define DYC_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dyc {

/// Fixed-capacity dense bit set.
class BitVector {
public:
  BitVector() = default;
  explicit BitVector(size_t N) : NumBits(N), Bits((N + 63) / 64, 0) {}

  size_t size() const { return NumBits; }

  void resize(size_t N) {
    NumBits = N;
    Bits.assign((N + 63) / 64, 0);
  }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Bits[I / 64] >> (I % 64)) & 1;
  }

  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Bits[I / 64] |= 1ULL << (I % 64);
  }

  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Bits[I / 64] &= ~(1ULL << (I % 64));
  }

  void clear() {
    for (uint64_t &W : Bits)
      W = 0;
  }

  /// this |= O; returns true if any bit changed.
  bool unionWith(const BitVector &O) {
    assert(NumBits == O.NumBits && "size mismatch");
    bool Changed = false;
    for (size_t I = 0; I != Bits.size(); ++I) {
      uint64_t Before = Bits[I];
      Bits[I] |= O.Bits[I];
      Changed |= Bits[I] != Before;
    }
    return Changed;
  }

  /// this &= O; returns true if any bit changed.
  bool intersectWith(const BitVector &O) {
    assert(NumBits == O.NumBits && "size mismatch");
    bool Changed = false;
    for (size_t I = 0; I != Bits.size(); ++I) {
      uint64_t Before = Bits[I];
      Bits[I] &= O.Bits[I];
      Changed |= Bits[I] != Before;
    }
    return Changed;
  }

  /// this &= ~O.
  void subtract(const BitVector &O) {
    assert(NumBits == O.NumBits && "size mismatch");
    for (size_t I = 0; I != Bits.size(); ++I)
      Bits[I] &= ~O.Bits[I];
  }

  bool operator==(const BitVector &O) const {
    return NumBits == O.NumBits && Bits == O.Bits;
  }

  bool any() const {
    for (uint64_t W : Bits)
      if (W)
        return true;
    return false;
  }

  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Bits)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  /// The backing words, for dataflow loops that update sets in place.
  uint64_t *words() { return Bits.data(); }
  const uint64_t *words() const { return Bits.data(); }

  /// Calls \p F with the index of each set bit, in increasing order.
  template <typename Fn> void forEachSetBit(Fn F) const {
    for (size_t WI = 0; WI != Bits.size(); ++WI) {
      uint64_t W = Bits[WI];
      while (W) {
        unsigned B = static_cast<unsigned>(__builtin_ctzll(W));
        F(WI * 64 + B);
        W &= W - 1;
      }
    }
  }

private:
  size_t NumBits = 0;
  std::vector<uint64_t> Bits;
};

/// Bit access on a raw row of words: the dataflow analyses keep their
/// per-block sets as rows of one flat array.
inline bool testBit(const uint64_t *Row, size_t I) {
  return (Row[I / 64] >> (I % 64)) & 1;
}
inline void setBit(uint64_t *Row, size_t I) {
  Row[I / 64] |= 1ULL << (I % 64);
}

} // namespace dyc

#endif // DYC_SUPPORT_BITVECTOR_H
