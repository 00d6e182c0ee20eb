#!/bin/sh
# Runs every benchmark binary with smoke-sized arguments; the benches given
# --json write the BENCH_*.json reports that README.md ("Observability")
# describes.
#
# After the benches, every BENCH_*.json is compared against the checked-in
# baselines (bench/baselines/) by bench/check_regression: a report that is
# missing, lacks its envelope or has a false shape check, or a metric outside
# its tolerance band, fails the run and the deltas land in REGRESSIONS.json.
#
# Usage: bench/run_all.sh [build_dir]
#   build_dir defaults to ./build; binaries are expected in $build_dir/bench.
#
# Exit status is non-zero if any benchmark exits non-zero, any shape check
# prints FAIL, or any baselined metric regresses.

set -u

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"
LOG_DIR="$BENCH_DIR/logs"
BASELINE_DIR="$(dirname "$0")/baselines"

if [ ! -d "$BENCH_DIR" ]; then
    echo "error: $BENCH_DIR not found — build the project first" >&2
    exit 2
fi
mkdir -p "$LOG_DIR"

status=0

run_bench() {
    name="$1"
    shift
    if [ ! -x "$BENCH_DIR/$name" ]; then
        echo "SKIP $name (not built)"
        return
    fi
    log="$LOG_DIR/$name.txt"
    echo "RUN  $name $*"
    if ! "$BENCH_DIR/$name" "$@" > "$log" 2>&1; then
        echo "FAIL $name (non-zero exit, see $log)"
        status=1
        return
    fi
    if grep -q "FAIL" "$log"; then
        echo "FAIL $name (shape check failed, see $log)"
        status=1
        return
    fi
    echo "PASS $name"
}

# Smoke sizes: enough traffic for every shape check, seconds per bench.
# The baselines in bench/baselines/ were taken at these sizes.
run_bench table1_bandwidth 2048 --json "$BENCH_DIR/BENCH_sg.json"
run_bench table2_latency   4000
run_bench c10k             --hosts 4 --per-host 150 --json "$BENCH_DIR/BENCH_c10k.json"
run_bench table3_sizes   --json "$BENCH_DIR/BENCH_size.json"
run_bench fig_footprint
run_bench fig_javapc
run_bench ablation_alloc   --benchmark_min_time=0.02
run_bench ablation_bufio   --benchmark_min_time=0.02
run_bench fault_campaign   --seeds 8 --json "$BENCH_DIR/BENCH_fault.json"
run_bench crash_campaign   --seeds 2 --json "$BENCH_DIR/BENCH_crash.json"
run_bench tenant_campaign  --seeds 5 --json "$BENCH_DIR/BENCH_tenant.json"
run_bench http_campaign    --json "$BENCH_DIR/BENCH_http.json"
run_bench monitor_campaign --seeds 5 --seed-base 1 --json "$BENCH_DIR/BENCH_monitor.json"
run_bench aio_campaign     --json "$BENCH_DIR/BENCH_aio.json"

# The perf-regression gate: every baselined metric must stay inside its
# tolerance band.
if command -v python3 > /dev/null 2>&1; then
    if ! python3 "$(dirname "$0")/check_regression" \
            --baselines "$BASELINE_DIR" --bench-dir "$BENCH_DIR" \
            --out "$BENCH_DIR/REGRESSIONS.json"; then
        echo "FAIL perf regression gate (see $BENCH_DIR/REGRESSIONS.json)"
        status=1
    fi
else
    echo "SKIP perf regression gate (python3 not found)"
fi

exit $status
