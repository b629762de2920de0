//===- perfbench/src/Calibrate.h - Host-speed reference loops --------------===//
//
// On a shared host the same code can run up to twice as slowly from one
// minute to the next, because neighbours contend for the cores' caches and
// memory. The benchmark times fixed reference loops right beside its own
// operations and divides each operation's time by how much slower than
// nominal the loops ran at that moment, so that the end-to-end numbers
// track the program and not the neighbours.
//
// The reference loops are the benchmark's own code, fixed forever, and do
// the same kinds of work as DyC does: an interpreter over predecoded
// instructions (the VM), building and looking up small heap objects (the
// compiler), and zeroing a fresh buffer (a VM's memory image). Each kind
// of DyC work slows down with them at its own rate, so a caller weighs the
// loops by a Mix of exponents.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The kinds of work the reference loops do.
enum class Kind : uint8_t { Interp, Heap, Zero };
constexpr size_t NumKinds = 3;

/// How strongly a kind of DyC work slows down with each reference loop:
/// one exponent per kind (see Calibrator::slowdown).
using Mix = std::array<double, NumKinds>;

/// Times the reference loops and keeps the most recent samples.
class Calibrator {
public:
  Calibrator();

  /// Runs each reference loop once and records its time.
  void sample();

  /// How many times slower than on a quiet host work of mix \p M runs
  /// now: the product over the kinds of (median of the last few samples /
  /// the loop's nominal time) raised to the kind's exponent. 1 before the
  /// first sample.
  double slowdown(const Mix &M) const;

  /// Nominal time of each loop, ns: its time on a quiet host.
  static const std::array<double, NumKinds> NominalNs;
  /// Samples per kind that slowdown() takes the median of.
  static constexpr size_t Window = 7;

  /// Ns of the most recent samples of each kind, oldest first.
  const std::vector<double> &recent(Kind K) const {
    return Recent[static_cast<size_t>(K)];
  }

private:
  std::array<std::vector<double>, NumKinds> Recent;
  // Fixed inputs of the loops, built once.
  struct Instr {
    uint8_t Op, A, B, C;
    int32_t Imm;
  };
  std::vector<Instr> Program;
  std::vector<uint64_t> Memory;
  std::vector<uint32_t> Keys;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
