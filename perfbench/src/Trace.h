//===- perfbench/src/Trace.h - In-memory spans around layer calls ----------===//
//
// The traced run records one span around each call the benchmark makes
// into a layer's public function (frontend, opt, bta, cogen, runtime, vm,
// server, workloads) and around its own work (checks, teardown, waits), so
// the spans of a phase tile its wall time. Spans stay in memory, one
// Tracer per thread, and are written once at the end in the Chrome
// trace-event format. A disabled Tracer records nothing.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Util.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = ""; ///< static string, "<layer>[.<step>]"
  uint64_t Begin = 0;    ///< host ns
  uint64_t End = 0;
  int32_t Parent = -1;   ///< index of the enclosing span, -1 at top level
  uint32_t Op = 0;       ///< operation the span belongs to
};

class Tracer {
public:
  Tracer(bool Enabled, uint32_t Tid) : On(Enabled), Tid(Tid) {}

  bool enabled() const { return On; }
  uint32_t tid() const { return Tid; }
  const std::vector<Span> &spans() const { return Spans; }
  size_t size() const { return Spans.size(); }
  void reserve(size_t N) { Spans.reserve(N); }

  /// Tags the spans that follow with operation \p Op.
  void setOp(uint32_t Op) { CurOp = Op; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int32_t begin(const char *Name);
  void end(int32_t Idx);
  /// Records an interval measured elsewhere (e.g. by a library timer) as a
  /// child of the innermost open span.
  void addChild(const char *Name, uint64_t Begin, uint64_t End);

private:
  bool On;
  uint32_t Tid;
  uint32_t CurOp = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// RAII span.
class Scoped {
public:
  Scoped(Tracer &T, const char *Name) : T(T), Idx(T.begin(Name)) {}
  ~Scoped() { T.end(Idx); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer &T;
  int32_t Idx;
};

/// Self time of a span: its duration minus the time its direct children
/// cover. Totals per span name over spans [From, To).
struct SelfTime {
  uint64_t Calls = 0;
  double SelfNs = 0;
};
std::map<std::string, SelfTime> selfTimes(const std::vector<Span> &Spans,
                                          size_t From = 0,
                                          size_t To = SIZE_MAX);
/// Sum of the self times of spans [From, To) (equals the summed duration
/// of the top-level spans in that range).
double selfTimeSum(const std::vector<Span> &Spans, size_t From = 0,
                   size_t To = SIZE_MAX);
/// |SpanSum - Wall| / Wall, in percent.
double spanSumErrPct(double SpanSumNs, double WallNs);

/// The span-sum health check of one traced phase: the self times of spans
/// [From, end) must sum to within this many percent of its wall time.
constexpr double MaxSpanSumErrPct = 5;
/// Records that check in \p Ops as one operation, failed when the spans
/// leave more of the wall time uncovered (or overlap it by more); returns
/// the error in percent.
double checkSpanSum(Checks &Ops, const std::vector<Span> &Spans, size_t From,
                    double WallNs);

/// Writes every tracer's spans as Chrome trace events ("X" phase, times
/// in microseconds relative to \p OriginNs). At most \p MaxSpans spans are
/// written per tracer. Returns false on I/O failure.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers,
                      uint64_t OriginNs, size_t MaxSpans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
