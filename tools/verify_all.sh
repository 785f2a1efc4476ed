#!/bin/sh
# Full correctness audit: build with the invariant checker compiled in,
# run the complete test suite (closed forms, fuzz, golden determinism) with
# the checker hot, then drive every figure bench at reduced request
# counts — still under the checker — so the exact code paths that
# generate the paper's numbers are swept for invariant violations.
#
# Usage: tools/verify_all.sh [IDP_REQUESTS]
#
#   IDP_REQUESTS   per-bench request override for the bench sweep
#                  (default 4000; the test suite always runs full).
#
# Exits non-zero on the first violation or test failure.
set -e
cd "$(dirname "$0")/.."

REQUESTS="${1:-4000}"

if [ ! -f build/CMakeCache.txt ]; then
    if command -v ninja >/dev/null 2>&1; then
        cmake -B build -G Ninja
    else
        cmake -B build
    fi
fi
if grep -q 'IDP_VERIFY:BOOL=OFF' build/CMakeCache.txt 2>/dev/null; then
    echo "verify_all.sh: build/ was configured with -DIDP_VERIFY=OFF;" >&2
    echo "reconfigure with -DIDP_VERIFY=ON to audit." >&2
    exit 2
fi
cmake --build build -j "$(nproc 2>/dev/null || echo 2)"

echo "== test suite (invariant checker hot) =="
ctest --test-dir build --output-on-failure

echo "== bench sweep under the checker (IDP_REQUESTS=$REQUESTS) =="
# Reports go to a throwaway directory, never over the committed ones.
BENCH_OUT=$(mktemp -d)
trap 'rm -rf "$BENCH_OUT"' EXIT
for b in build/bench/*; do
    name=$(basename "$b")
    echo "== $name =="
    IDP_VERIFY=1 IDP_REQUESTS="$REQUESTS" IDP_BENCH_OUT="$BENCH_OUT" \
        "$b" > /dev/null
done
echo "verify_all.sh: all tests and benches clean."
