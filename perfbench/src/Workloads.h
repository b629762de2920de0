//===- perfbench/src/Workloads.h - The three end-to-end workloads ----------===//
//
//  cold_start    every Table 3 program from MiniC source to its first
//                checked region result, in a seeded order (closed loop);
//  steady_state  the same programs built and warmed in set-up, then fixed
//                batches of region invocations (closed loop);
//  server_churn  a SpecServer serving the bytecode interpreter specialized
//                per guest program, Zipfian keys over more guests than the
//                resident budget holds: a closed-loop phase for
//                throughput, then an open-loop phase for latency.
//
// Every workload reports the same metric names (README.md defines what
// each means per workload). See README.md for why each workload exists.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Util.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// MiniC source of the interpreter server_churn specializes.
  std::string VmSourcePath;
  /// Chrome trace output of a traced run ("" writes none).
  std::string TracePath;
  /// Test hook: corrupts one reference value so its checks must fail.
  bool CorruptReference = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Result {
  Checks Ops;
  /// End-to-end metrics for an untraced run, per-layer ones for a traced
  /// run.
  std::vector<Metric> Metrics;
  /// JSON object with the per-program simulated counts (Table 3's s, d, o
  /// and instructions generated) and other run details.
  std::string Details;
  /// Non-empty when the workload could not be set up; nothing was measured.
  std::string Error;
};

/// Runs one workload: "cold_start", "steady_state" or "server_churn".
Result runWorkload(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
