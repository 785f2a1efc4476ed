#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Workloads: paper_sweep, mirror_rebuild, serve_diurnal. The first run
configures and builds perfbench/ (which pulls in ../src) under
.bench_build/perfbench; later runs only re-check the build. Build output
goes to stderr; the program's header and its one-line JSON result go to
stdout, the JSON last. A traced run (--trace 1) also writes its
host-time spans to .bench_build/perfbench/spans/. See perfbench/README.md.
"""

import argparse
import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "idp_perfbench")
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def fixed_layout():
    """Turn off address-space randomisation for the benchmark process.

    With it on, one seed's set-up time varied by up to 40% from process
    to process (with it off, by 3%), because each run places the heap,
    stack and libraries differently. Ignored where the call is refused.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_step(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode == 0


def build():
    """Configure (until it once succeeds) and build the benchmark program."""
    configured = os.path.join(BUILD, ".configured")
    if not os.path.exists(configured):
        if not run_step(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]):
            return False
        open(configured, "w").close()
    jobs = str(min(4, os.cpu_count() or 1))
    return run_step(["cmake", "--build", BUILD, "--target", "idp_perfbench",
                     "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-out", os.path.join(
            spans, "%s_seed%s.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
