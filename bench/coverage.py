#!/usr/bin/env python3
"""Line and function coverage of src/, merged across gcov build trees.

Reads gcc's own `gcov --json-format --stdout` for every .gcda file under the
given build trees (gcovr and lcov are not needed), merges the counts by
source line and by function across translation units and trees, and prints:

  - executable and run lines in src/, in total and per library;
  - every function instance (a template instantiation counts on its own)
    that never ran.

A header line compiled into many objects counts once, as run if any object
ran it, so inline and template code is not reported dead because one
translation unit never called it.  The report is informational: it gates
nothing.

Typical use, from the root of the repository (see README.md, "Coverage"):

  cmake -S . -B build-cov -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov -j4
  ctest --test-dir build-cov
  sh bench/run_all.sh build-cov
  cmake -S kitbench -B build-cov-kb -DCMAKE_BUILD_TYPE=Release \\
      "-DCMAKE_CXX_FLAGS_RELEASE=-O1 -fno-inline --coverage" \\
      -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov-kb -j4 --target kitbench kitbench_test
  (run build-cov-kb/kitbench_test and build-cov-kb/kitbench workloads)
  python3 bench/coverage.py build-cov build-cov-kb

Usage: bench/coverage.py [--file PATH]... TREE...
  --file  also list the never-run line numbers of this src/ file
Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH = 64  # .gcda files per gcov process


def find_gcda(tree):
    for dirpath, _, files in os.walk(os.path.abspath(tree)):
        for name in files:
            if name.endswith(".gcda"):
                yield os.path.join(dirpath, name)


def gcov_reports(paths):
    """Yields one parsed gcov JSON document per input object."""
    for i in range(0, len(paths), BATCH):
        batch = paths[i:i + BATCH]
        proc = subprocess.run(["gcov", "--json-format", "--stdout"] + batch,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, cwd=os.path.dirname(batch[0]))
        if proc.returncode != 0:
            sys.exit("coverage: gcov failed on " + batch[0])
        for line in proc.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def library(rel):
    """src/dev/linux/x.cc -> dev/linux; src/net/tcp.cc -> net."""
    parts = rel.split("/")[1:]
    if parts[0] == "dev" and len(parts) > 2:
        return "dev/" + parts[1]
    return parts[0]


def merge(trees):
    """Returns ({(file, line): count}, {(file, start_line, name): count})."""
    src_dir = os.path.join(os.path.realpath(ROOT), "src") + os.sep
    lines = {}
    functions = {}
    for tree in trees:
        paths = sorted(find_gcda(tree))
        if not paths:
            sys.exit("coverage: no .gcda files under " + tree)
        for report in gcov_reports(paths):
            cwd = report.get("current_working_directory", "")
            for entry in report["files"]:
                path = os.path.realpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(src_dir):
                    continue
                rel = "src/" + path[len(src_dir):]
                for ln in entry["lines"]:
                    key = (rel, ln["line_number"])
                    lines[key] = lines.get(key, 0) + ln["count"]
                for fn in entry["functions"]:
                    key = (rel, fn["start_line"], fn["demangled_name"])
                    functions[key] = functions.get(key, 0) + fn["execution_count"]
    return lines, functions


def ranges(numbers):
    """[3, 4, 5, 9] -> '3-5, 9'."""
    out = []
    for n in sorted(numbers):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+")
    parser.add_argument("--file", action="append", default=[])
    args = parser.parse_args(argv)

    lines, functions = merge(args.trees)
    per_lib = {}
    for (rel, _), count in lines.items():
        lib = per_lib.setdefault(library(rel), [0, 0])
        lib[0] += 1
        lib[1] += count > 0
    total = len(lines)
    run = sum(1 for c in lines.values() if c > 0)
    print("src/ lines run: %d of %d executable (%.1f %%)"
          % (run, total, 100.0 * run / total if total else 0))
    print("\nnever-run lines by library:")
    for lib, (executable, ran) in sorted(per_lib.items(),
                                         key=lambda kv: kv[1][1] - kv[1][0]):
        if executable > ran:
            print("  %-14s %5d of %5d" % (lib, executable - ran, executable))

    dead = sorted(k for k, c in functions.items() if c == 0)
    print("\nnever-run functions: %d instances" % len(dead))
    for rel, start, name in dead:
        print("  %s:%d  %s" % (rel, start, name))

    for rel in args.file:
        never = [ln for (f, ln), c in lines.items() if f == rel and c == 0]
        known = any(f == rel for f, _ in lines)
        print("\n%s never-run lines: %s"
              % (rel, ranges(never) if never else ("none" if known else
                                                   "no coverage data")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
