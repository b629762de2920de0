//===- tests/SupportTest.cpp - support library unit tests -------------------------===//

#include "support/BitVector.h"
#include "support/Support.h"

#include <gtest/gtest.h>


using namespace dyc;

namespace {

TEST(Word, IntRoundTrip) {
  for (int64_t V : {int64_t(0), int64_t(1), int64_t(-1), int64_t(1) << 62,
                    int64_t(-42)}) {
    EXPECT_EQ(Word::fromInt(V).asInt(), V);
  }
}

TEST(Word, FloatRoundTrip) {
  for (double V : {0.0, -0.0, 1.0, -1.5, 3.14159e100, 1e-300}) {
    EXPECT_EQ(Word::fromFloat(V).asFloat(), V);
  }
  // -0.0 and +0.0 have distinct bit patterns and must compare unequal as
  // Words (the ZCP 0.0-check relies on exact bits).
  EXPECT_NE(Word::fromFloat(0.0), Word::fromFloat(-0.0));
}

TEST(Support, FormatString) {
  EXPECT_EQ(formatString("x=%d y=%s", 7, "ok"), "x=7 y=ok");
  EXPECT_EQ(formatString("%s", ""), "");
}

TEST(Support, PowerOf2Helpers) {
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_TRUE(isPowerOf2(1LL << 40));
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_FALSE(isPowerOf2(-4));
  EXPECT_FALSE(isPowerOf2(12));
  EXPECT_EQ(log2OfPow2(1), 0u);
  EXPECT_EQ(log2OfPow2(1024), 10u);
}

TEST(Support, HashWordsDiffers) {
  std::vector<Word> A = {Word::fromInt(1), Word::fromInt(2)};
  std::vector<Word> B = {Word::fromInt(2), Word::fromInt(1)};
  EXPECT_NE(hashWords(A), hashWords(B));
  EXPECT_EQ(hashWords(A), hashWords(A));
}

TEST(DeterministicRNGTest, Reproducible) {
  DeterministicRNG A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  DeterministicRNG C(43);
  EXPECT_NE(DeterministicRNG(42).next(), C.next());
  for (int I = 0; I != 1000; ++I) {
    double D = DeterministicRNG(I + 1).nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(BitVectorTest, BasicOps) {
  BitVector V(130);
  EXPECT_FALSE(V.any());
  V.set(0);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(129));
  EXPECT_FALSE(V.test(1));
  EXPECT_EQ(V.count(), 3u);
  V.reset(64);
  EXPECT_FALSE(V.test(64));
  std::vector<size_t> Bits;
  V.forEachSetBit([&](size_t I) { Bits.push_back(I); });
  EXPECT_EQ(Bits, (std::vector<size_t>{0, 129}));
}

TEST(BitVectorTest, SetAlgebra) {
  BitVector A(70), B(70);
  A.set(1);
  A.set(65);
  B.set(65);
  B.set(2);
  BitVector U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_TRUE(U.test(1));
  EXPECT_TRUE(U.test(2));
  EXPECT_TRUE(U.test(65));
  EXPECT_FALSE(U.unionWith(B)); // no change the second time
  BitVector I = A;
  EXPECT_TRUE(I.intersectWith(B));
  EXPECT_FALSE(I.test(1));
  EXPECT_TRUE(I.test(65));
  BitVector S = A;
  S.subtract(B);
  EXPECT_TRUE(S.test(1));
  EXPECT_FALSE(S.test(65));
}

} // namespace
