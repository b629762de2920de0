#!/usr/bin/env python3
"""End-to-end DyC benchmark.

Builds the benchmark, and the DyC libraries it links, from the sources of
the checkout it sits in, runs one workload, and prints the result as the
last line of standard output:

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 10 --trace 0

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; traced runs also write a Chrome
trace-event file to traces/ there. Exits nonzero, printing no result, when
the arguments are bad, the sources are missing, or the build or run fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_start", "steady_state", "server_churn")
# A run is set-up (a few seconds at most) plus --seconds of measurement.
RUN_SLACK_S = 90
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be a whole number >= 0")
    if not 0 < a.seconds <= 600:
        p.error("--seconds must be in (0, 600]")
    return a


def build(build_dir):
    """Configures once, then builds the benchmark binary (a no-op when
    nothing changed). Build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "dyc_e2e",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("the benchmark printed no result line")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("result has no attempted operations")
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json"))) \
        if os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")) else None
    if bench:
        want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
        if want != set(res["metrics"]):
            fail("result metrics differ from BENCHMARK.json: "
                 f"missing {sorted(want - set(res['metrics']))}, "
                 f"extra {sorted(set(res['metrics']) - want)}")


def main():
    a = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no DyC sources under {ROOT}; run from a checkout of the "
             "repository", code=2)
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "dyc_e2e"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--vm-source", os.path.join(HERE, "bytecode_vm.minic"),
           "--commit", git_commit()]
    if a.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{a.workload}-{a.seed}.json")]
    # The library's defaults are the configuration under test: drop any
    # DYC_* overrides (engine, backend, emit plan) from the environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DYC_")}
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=a.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in time")
    if r.returncode != 0:
        fail(f"the benchmark exited {r.returncode}",
             code=r.returncode if r.returncode > 0 else 1)
    lines = r.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], a.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
