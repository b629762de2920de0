//===- perfbench/src/main.cpp - Command line of the end-to-end benchmark ---===//
//
//   dyc_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--vm-source FILE] [--trace-out FILE] [--commit SHA]
//
// Prints a line with the machine, the configuration and the run's details,
// then, as the last line, one JSON object with "correct", "attempted",
// "failed" and "metrics". Exits nonzero, printing no result, when the
// arguments are bad or the workload cannot be set up.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "vm/VM.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "dyc_e2e: %s\nusage: dyc_e2e --workload "
               "cold_start|steady_state|server_churn --seed N --seconds S "
               "--trace 0|1 [--vm-source FILE] [--trace-out FILE] "
               "[--commit SHA]\n",
               Why);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!*S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

/// JSON string literal for the short, tame strings this program prints.
std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S)
    if (C == '"' || C == '\\')
      Out += std::string("\\") + C;
    else if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  return Out + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Commit = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value after " + A).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      if (!parseU64(V, N))
        return usage("--seed takes a whole number");
      O.Seed = N;
      HaveSeed = true;
    } else if (A == "--seconds") {
      char *End = nullptr;
      O.Seconds = std::strtod(V, &End);
      if (*End || !(O.Seconds > 0) || O.Seconds > 3600)
        return usage("--seconds takes a number in (0, 3600]");
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace takes 0 or 1");
      O.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--vm-source") {
      O.VmSourcePath = V;
    } else if (A == "--trace-out") {
      O.TracePath = V;
    } else if (A == "--commit") {
      Commit = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  Result R = runWorkload(O);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "dyc_e2e: %s\n", R.Error.c_str());
    return 1;
  }

  long Nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("{\"config\": {\"workload\": %s, \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"nproc\": %ld, "
              "\"hardware_concurrency\": %u, \"dispatch_mode\": %s, "
              "\"build_type\": %s, \"compiler\": %s, \"commit\": %s}, "
              "\"details\": %s}\n",
              quoted(O.Workload).c_str(),
              static_cast<unsigned long long>(O.Seed),
              number(O.Seconds).c_str(), O.Trace ? 1 : 0, Nproc,
              std::thread::hardware_concurrency(),
              quoted(dyc::vm::VM::dispatchMode()).c_str(),
              quoted(PERFBENCH_BUILD_TYPE).c_str(),
              quoted(PERFBENCH_COMPILER).c_str(), quoted(Commit).c_str(),
              R.Details.c_str());

  std::string Metrics;
  for (const Metric &M : R.Metrics)
    Metrics += (Metrics.empty() ? "" : ", ") + quoted(M.Name) +
               ": {\"value\": " + number(M.Value) +
               ", \"unit\": " + quoted(M.Unit) + "}";
  bool Correct = R.Ops.Failed == 0 && R.Ops.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Ops.Attempted),
              static_cast<unsigned long long>(R.Ops.Failed),
              Metrics.c_str());
  return 0;
}
