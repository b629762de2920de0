//===- perfbench/src/Util.h - Seeded generators and statistics -------------===//
//
// The benchmark's inputs come only from its --seed: a seeded xorshift64*
// stream drives every order and key it draws, so one seed always yields
// the same inputs. The statistics helpers define exactly how percentiles,
// medians and geometric means are taken, so the reported numbers mean the
// same on every commit.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// xorshift64*, seeded through splitmix64 so nearby seeds diverge at once.
class Rng {
public:
  explicit Rng(uint64_t Seed);
  uint64_t next();
  /// Uniform in [0, 1).
  double unit();
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N);

private:
  uint64_t S;
};

/// Zipfian sampler over ranks 0..N-1 with exponent S (rank 0 hottest),
/// by inverse CDF over precomputed cumulative weights.
class Zipf {
public:
  Zipf(size_t N, double S);
  size_t draw(Rng &R) const;

private:
  std::vector<double> Cum;
};

/// A seeded permutation of 0..N-1 (Fisher-Yates).
std::vector<size_t> seededOrder(size_t N, Rng &R);

/// Nearest-rank percentile, P in [0, 1]: the smallest sample with at least
/// P of the samples at or below it. 0 for an empty input.
double percentile(std::vector<double> Samples, double P);
double median(std::vector<double> Samples);
/// Geometric mean of positive samples; 0 for an empty input.
double geomean(const std::vector<double> &Samples);

/// Monotonic host clock in nanoseconds.
uint64_t nowNs();

/// Pass/fail tally of checked operations. Every checked operation counts
/// as attempted; a wrong output counts as failed and is never dropped.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void record(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
  void add(const Checks &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
  }
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_H
