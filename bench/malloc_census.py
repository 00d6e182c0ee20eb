#!/usr/bin/env python3
"""Counts the malloc calls of one kitbench run and names the kit's top sites.

Usage, from the root of the repository:

  python3 bench/malloc_census.py [--top N] [--every N] [--binary PATH] \\
      -- --workload http_mixed --seed 1 --seconds 0.001 --trace 1

It builds the LD_PRELOAD shim bench/malloc_census.c and, unless --binary
names one, the kitbench binary (as kitbench/run.py does, under
.bench_build/), then runs kitbench with the arguments after `--` under the
shim.  It prints the total malloc/calloc/realloc calls, the calls per
attempted operation, and the kit call sites of the sampled calls (one in
--every, default 997), each named by addr2line as the first frame in the
binary that is not the standard library.  Run it on two trees to compare
them: the sampled shares are estimates, the totals are exact.
"""

import argparse
import collections
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIM_DIR = os.path.join(ROOT, ".bench_build", "malloc_census")
# Frames that allocate on a caller's behalf: the caller is the site.
LIBRARY_FRAME = re.compile(r"^(\S+ )?(std::|__gnu_cxx::|operator new)")


def build_shim():
    os.makedirs(SHIM_DIR, exist_ok=True)
    shim = os.path.join(SHIM_DIR, "malloc_census.so")
    source = os.path.join(ROOT, "bench", "malloc_census.c")
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", shim, source, "-ldl"],
                   check=True)
    return shim


def build_kitbench():
    sys.path.insert(0, os.path.join(ROOT, "kitbench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in kitbench/
    import run  # kitbench/run.py: the benchmark's own build step
    run.build(["kitbench"])
    return os.path.join(run.BUILD, "kitbench")


def symbolize(binary, offsets):
    """Maps each hex offset in the binary to its demangled function name."""
    if not offsets:
        return {}
    out = subprocess.run(["addr2line", "-f", "-C", "-e", binary] + offsets,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    return {offset: lines[2 * i] for i, offset in enumerate(offsets)}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--every", type=int, default=997)
    parser.add_argument("--binary", help="a kitbench binary (default: build one)")
    parser.add_argument("kitbench_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    bench_args = args.kitbench_args
    if bench_args[:1] == ["--"]:
        bench_args = bench_args[1:]
    if not bench_args:
        parser.error("give the kitbench arguments after --")

    shim = build_shim()
    binary = os.path.realpath(args.binary or build_kitbench())
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "census.txt")
        env = dict(os.environ, LD_PRELOAD=shim, MALLOC_CENSUS_OUT=report,
                   MALLOC_CENSUS_EVERY=str(args.every))
        proc = subprocess.run([binary] + bench_args, env=env,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("malloc_census: kitbench exited with %d" % proc.returncode)
        result = json.loads(proc.stdout.splitlines()[-1])
        with open(report) as f:
            lines = f.read().splitlines()

    calls = int(lines[0].split()[1])
    stacks = []
    for line in lines[2:]:
        frames = []
        for frame in line.split()[1:]:
            path, _, offset = frame.rpartition("+")
            if os.path.realpath(path) == binary:
                frames.append(offset)
        stacks.append(frames)
    names = symbolize(binary, sorted({o for frames in stacks for o in frames}))
    sites = collections.Counter()
    for frames in stacks:
        site = next((names[o] for o in frames if not LIBRARY_FRAME.match(names[o])),
                    "(outside the kit binary)")
        sites[site] += 1

    ops = result["attempted"]
    print("malloc calls: %d" % calls)
    print("attempted ops: %d" % ops)
    print("calls per op: %.2f" % (calls / ops if ops else float("nan")))
    print("sampled calls: %d (one in %d)" % (len(stacks), args.every))
    print("top kit call sites (share of samples, estimated calls):")
    for site, count in sites.most_common(args.top):
        share = count / len(stacks)
        print("  %5.1f %%  %10d  %s" % (100 * share, share * calls, site[:150]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
