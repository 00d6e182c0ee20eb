#!/usr/bin/env python3
"""Builds the kit benchmark from this checkout and runs one workload.

Usage, from the root of the repository:

  python3 kitbench/run.py --workload <http_mixed|ttcp_rtcp|crash_sweep> \\
      --seed <n> --seconds <s> --trace <0|1>
  python3 kitbench/run.py --selftest

The first call configures and builds an optimised tree under .bench_build/
(the kit libraries plus kitbench); later calls rebuild incrementally.  The
benchmark's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 gives the end-to-end metrics of an
untraced run, --trace 1 the per-layer metrics of a traced one (see
kitbench/main.cc).  --selftest builds and runs kitbench_test.

Seed 90001 is held out: it was not used while the workloads were tuned, and a
claimed gain must hold on it as well as on the seeds it was measured with.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "kitbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("kitbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no kit sources next to kitbench/ (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "kitbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)


def main(argv):
    if argv == ["--selftest"]:
        build(["kitbench_test"])
        return subprocess.run([os.path.join(BUILD, "kitbench_test")]).returncode
    build(["kitbench"])
    try:
        proc = subprocess.run([os.path.join(BUILD, "kitbench")] + argv,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with %d" % proc.returncode, proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has unexpected keys", 1)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
