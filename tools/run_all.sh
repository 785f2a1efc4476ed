#!/bin/sh
# Build, test, and regenerate every table/figure into results/.
# Usage: tools/run_all.sh [--filter REGEX] [IDP_REQUESTS] [IDP_THREADS]
#
#   --filter REGEX   run only the bench binaries whose name matches
#                    REGEX (grep -E syntax), e.g. --filter 'fig4'.
#
# Every bench runs under the runtime invariant checker unless
# IDP_VERIFY=0 is set: any conservation or causality violation aborts
# the bench. See docs/verification.md; tools/verify_all.sh runs the
# full audit.
#
# IDP_THREADS (2nd positional or inherited env) is passed through to
# every bench binary: it sets the sweep engine's worker count
# (default: all hardware threads; 1 = the exact serial path). Results
# are bit-identical at any thread count. IDP_TRACE / IDP_TRACE_SAMPLE
# / IDP_LOG are likewise inherited by the benches, so
# `IDP_TRACE=1 tools/run_all.sh --filter fig4` produces traced runs.
set -e
cd "$(dirname "$0")/.."

FILTER=''
if [ "$1" = "--filter" ]; then
    if [ -z "$2" ]; then
        echo "run_all.sh: --filter needs a regex" >&2
        exit 2
    fi
    FILTER="$2"
    shift 2
fi

# Prefer Ninja when available, fall back to the default generator
# (the tier-1 verify line uses plain Make; both must work).
if [ ! -f build/CMakeCache.txt ]; then
    if command -v ninja >/dev/null 2>&1; then
        cmake -B build -G Ninja
    else
        cmake -B build
    fi
fi
cmake --build build -j "$(nproc 2>/dev/null || echo 2)"
ctest --test-dir build --output-on-failure

[ -n "$1" ] && export IDP_REQUESTS="$1"
[ -n "$2" ] && export IDP_THREADS="$2"

mkdir -p results
ran=0
for b in build/bench/*; do
    name=$(basename "$b")
    if [ -n "$FILTER" ] && ! echo "$name" | grep -Eq "$FILTER"; then
        continue
    fi
    ran=$((ran + 1))
    echo "== $name (IDP_THREADS=${IDP_THREADS:-auto} IDP_TRACE=${IDP_TRACE:-0} IDP_VERIFY=${IDP_VERIFY:-default}) =="
    "$b" | tee "results/$name.txt"
done
if [ "$ran" -eq 0 ]; then
    echo "run_all.sh: no bench matched --filter '$FILTER'" >&2
    exit 1
fi
echo "All outputs written to results/."
# Six benches also write an idp-bench-v1 report (BENCH_<name>.json)
# into $IDP_BENCH_OUT, or the repo root. Reports are not committed;
# CI's bench-smoke job uploads its own as the bench-json artifact.
# See docs/performance.md.
for j in "${IDP_BENCH_OUT:-.}"/BENCH_*.json; do
    [ -f "$j" ] && echo "Bench report: $j"
done
echo "Check the reports with tools/bench_check.py ${IDP_BENCH_OUT:-.}/BENCH_*.json"
echo "(CI's bench-smoke job uploads smoke-scale reports as the bench-json artifact.)"
