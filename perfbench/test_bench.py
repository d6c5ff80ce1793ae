#!/usr/bin/env python3
"""Self-test of the served-path benchmark.

    python3 perfbench/test_bench.py [--workload NAME ...] [--seconds S]

For each workload, runs the benchmark twice with the same seed in each
mode and checks that:
  * every reply passed its check (correct, no failures, exit code 0);
  * the result line carries exactly the metrics BENCHMARK.json lists for
    that mode, each with its unit;
  * the exact work counters (per schedule pass, read from GET /metrics)
    are identical across the two runs;
  * the traced replay's layer self times cover at least 90% of its wall
    time;
  * the served run's handler time per request is within SERVED_RATIO of
    the replay's, so the replay does the work the server does.
Run from the root of a source checkout; builds like run.py does.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTERS_PREFIX = "exact counters per pass: "
# Workloads served_bench runs that BENCHMARK.json leaves out (README.md,
# "Steadiness and bounds"); the self-test covers them too.
UNLISTED_WORKLOADS = ["discover_zipf"]
# The band main.cc warns outside of (kMinServedRatio, kMaxServedRatio).
SERVED_RATIO = (0.67, 1.5)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counters = None
    for line in lines:
        if line.startswith(COUNTERS_PREFIX):
            counters = json.loads(line[len(COUNTERS_PREFIX):])
    return proc.returncode, result, counters


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    workloads = [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in args.workload or workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            runs = [run(workload, args.seed, args.seconds, trace)
                    for _ in range(2)]
            tag = "%s trace=%d" % (workload, trace)
            for code, result, _ in runs:
                check(code == 0 and result["correct"] and
                      result["failed"] == 0 and result["attempted"] > 0,
                      tag + ": every reply verified")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want, tag + ": metrics match BENCHMARK.json")
            check(runs[0][2] is not None and runs[0][2] == runs[1][2],
                  tag + ": exact counters identical across runs")
            if trace == 1:
                for _, result, _ in runs:
                    coverage = result["metrics"]["replay.coverage_pct"]["value"]
                    check(coverage >= 90.0,
                          tag + ": replay coverage %.1f%% >= 90%%" % coverage)
                    ratio = result["metrics"]["replay.served_ratio"]["value"]
                    check(SERVED_RATIO[0] <= ratio <= SERVED_RATIO[1],
                          tag + ": served/replay time per request %.2f in "
                          "[%.2f, %.2f]" % ((ratio,) + SERVED_RATIO))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
