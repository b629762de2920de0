//===- perfbench/src/Trace.cpp ---------------------------------------------===//

#include "Trace.h"
#include "Util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int32_t Tracer::begin(const char *Name) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = CurOp;
  S.Begin = nowNs();
  Spans.push_back(S);
  int32_t Idx = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Idx);
  return Idx;
}

void Tracer::end(int32_t Idx) {
  if (Idx < 0)
    return;
  Spans[static_cast<size_t>(Idx)].End = nowNs();
  Open.pop_back();
}

void Tracer::addChild(const char *Name, uint64_t Begin, uint64_t End) {
  if (!On)
    return;
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = CurOp;
  S.Begin = Begin;
  S.End = End;
  Spans.push_back(S);
}

namespace {

/// Per-span time covered by direct children, for spans [From, To).
std::vector<double> childCover(const std::vector<Span> &Spans, size_t From,
                               size_t To) {
  std::vector<double> Cover(To - From, 0.0);
  for (size_t I = From; I != To; ++I) {
    int32_t P = Spans[I].Parent;
    if (P >= 0 && static_cast<size_t>(P) >= From)
      Cover[static_cast<size_t>(P) - From] +=
          static_cast<double>(Spans[I].End - Spans[I].Begin);
  }
  return Cover;
}

} // namespace

std::map<std::string, SelfTime> selfTimes(const std::vector<Span> &Spans,
                                          size_t From, size_t To) {
  To = std::min(To, Spans.size());
  std::map<std::string, SelfTime> Out;
  if (From >= To)
    return Out;
  std::vector<double> Cover = childCover(Spans, From, To);
  for (size_t I = From; I != To; ++I) {
    SelfTime &T = Out[Spans[I].Name];
    ++T.Calls;
    T.SelfNs += static_cast<double>(Spans[I].End - Spans[I].Begin) -
                Cover[I - From];
  }
  return Out;
}

double selfTimeSum(const std::vector<Span> &Spans, size_t From, size_t To) {
  double Sum = 0;
  for (const auto &[Name, T] : selfTimes(Spans, From, To))
    Sum += T.SelfNs;
  return Sum;
}

double spanSumErrPct(double SpanSumNs, double WallNs) {
  return WallNs > 0 ? 100.0 * std::fabs(SpanSumNs - WallNs) / WallNs : 0;
}

double checkSpanSum(Checks &Ops, const std::vector<Span> &Spans, size_t From,
                    double WallNs) {
  double Err = spanSumErrPct(selfTimeSum(Spans, From), WallNs);
  Ops.record(Err < MaxSpanSumErrPct);
  return Err;
}

bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers,
                      uint64_t OriginNs, size_t MaxSpans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool First = true;
  for (const Tracer *T : Tracers) {
    size_t N = std::min(T->spans().size(), MaxSpans);
    for (size_t I = 0; I != N; ++I) {
      const Span &S = T->spans()[I];
      std::string Cat(S.Name);
      Cat = Cat.substr(0, Cat.find('.'));
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%u,\"id\":%zu,\"parent\":%d}}",
                   First ? "" : ",", S.Name, Cat.c_str(), T->tid(),
                   static_cast<double>(S.Begin - OriginNs) / 1e3,
                   static_cast<double>(S.End - S.Begin) / 1e3, S.Op, I,
                   S.Parent);
      First = false;
    }
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
