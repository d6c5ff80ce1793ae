#!/usr/bin/env python3
"""Builds and runs the served-path benchmark of dialited.

    python3 perfbench/run.py --workload discover_zipf --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the repository's src/ tree plus served_bench)
into .bench_build/; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is served_bench's JSON result. The exit
code is served_bench's (non-zero when a reply fails its check), 1 when the
build fails, and 3 when the run did not finish within RUN_TIMEOUT_S. See
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "served_bench")
# A run sends a fixed amount of work, so a slower program runs longer. The
# slowest run, integrate_fd --trace 1 (4 passes at --seconds 30), took
# 54-65 s on the 4-core reference box. The limit below is what the benchmark's callers
# allow a run (180 s) less a margin, so a program about 2.5 times slower on
# that run is cut: it is reported as a timeout (exit code 3), not as a
# failed reply check and not as a measured slowdown.
RUN_TIMEOUT_S = 170
EXIT_TIMEOUT = 3


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "served_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY] + sys.argv[1:] + ["--workdir", os.path.join(BUILD, "runs")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: TIMEOUT: the run did not finish in %d s, so it was "
              "not measured; this is not a failed reply check" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return EXIT_TIMEOUT
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
