//===- perfbench/src/Util.cpp ----------------------------------------------===//

#include "Util.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

Rng::Rng(uint64_t Seed) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  Z ^= Z >> 31;
  S = Z ? Z : 0x9e3779b97f4a7c15ULL; // xorshift state must be nonzero
}

uint64_t Rng::next() {
  S ^= S >> 12;
  S ^= S << 25;
  S ^= S >> 27;
  return S * 0x2545f4914f6cdd1dULL;
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

uint64_t Rng::below(uint64_t N) { return next() % N; }

Zipf::Zipf(size_t N, double S) {
  Cum.reserve(N);
  double Total = 0;
  for (size_t R = 1; R <= N; ++R) {
    Total += 1.0 / std::pow(static_cast<double>(R), S);
    Cum.push_back(Total);
  }
  for (double &C : Cum)
    C /= Total;
}

size_t Zipf::draw(Rng &R) const {
  double U = R.unit();
  size_t Idx = static_cast<size_t>(
      std::upper_bound(Cum.begin(), Cum.end(), U) - Cum.begin());
  return std::min(Idx, Cum.size() - 1);
}

std::vector<size_t> seededOrder(size_t N, Rng &R) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(P * static_cast<double>(Samples.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Samples[std::min(Idx, Samples.size() - 1)];
}

double median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 0.5);
}

double geomean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  double LogSum = 0;
  for (double V : Samples)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Samples.size()));
}

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace perfbench
