#!/usr/bin/env python3
"""Check BENCH_*.json reports against the gates their benches pin.

Usage: tools/bench_check.py REPORT...

A report is {"schema": "idp-bench-v1", "bench": NAME, "metrics":
[...]}, each metric exactly {"name", "value", "unit"} with a numeric
value and a name no other metric repeats. BENCHES is the one place
each bench's gates live: Python comparisons over metric names. A
report must carry every metric its gates read and those listed under
"required".

Every gate of every report is evaluated and printed, one line each,
so one failure never hides another. Exits 1 if a report is unreadable
or malformed, names an unknown bench, lacks a required metric, or
fails a gate.
"""

import json
import os
import sys

SCHEMA = "idp-bench-v1"

# Scaling needs real cores; the speedup gates are meaningless on small
# runners. They apply when the core count the report itself recorded
# (the machine that ran the bench, which keeps the gate honest if the
# report ever travels) is at least this; a report that records 0
# falls back to this runner's count.
SPEEDUP_MIN_CORES = 4

SCHED_DEPTHS = (16, 64, 256)
REBUILD_CONFIGS = ("mirror_sa4", "mirror_conv", "raid5_conv")
GOVERNOR_FAMILIES = ("square", "closed", "diurnal")

BENCHES = {
    "kernel": {
        "required": ["calendar_events_per_sec", "drive_dispatches_per_sec",
                     "drive_requests_per_sec"],
        "gates": [
            "calendar_allocs_per_event == 0",
            "drive_allocs_per_event == 0",
            "drive_events_per_sec > 0",
        ],
    },
    "sched": {
        "required": [
            f"{metric}_q{q}" for q in SCHED_DEPTHS
            for metric in ("sptf_priced_per_dispatch",
                           "sched_dispatches_per_sec")
        ],
        "gates": [
            *(f"sched_allocs_per_dispatch_q{q} == 0" for q in SCHED_DEPTHS),
        ],
    },
    "raid": {
        "required": [
            "cpu_count", "sim_points", "points_per_sec", "requests_per_sec",
            *(f"pdes_{metric}_{w}"
              for metric in ("points_per_sec", "mirror_run_secs")
              for w in ("serial", "w1", "w2", "w4", "w8")),
        ],
        "gates": [
            # Byte-parity gates hold on any machine, any core count.
            "pdes_matches_serial == 1",
            "pdes_mirror_matches_serial == 1",
            # The whole request path is allocation-free (array joins,
            # checker ledgers, fan-out, bus and feed callbacks, PDES
            # fan-out): what remains is each run's fixed set-up over
            # 20k requests, 0.032 serial and 0.043 at 4 workers when
            # the bounds were set (5x headroom). PDES may only add its
            # own set-up on top.
            "serial_allocs_per_request <= 0.2",
            "pdes_allocs_per_request <= 0.25",
            "pdes_allocs_per_request <= serial_allocs_per_request + 0.5",
        ],
        "speedup_gates": [
            "pdes_speedup_4w >= 2.0",
            "pdes_mirror_speedup_4w >= 2.0",
        ],
    },
    "rebuild": {
        "required": [
            *(f"{cfg}_{phase}_{stat}" for cfg in REBUILD_CONFIGS
              for phase in ("healthy", "degraded", "rebuilding")
              for stat in ("mean_ms", "p50_ms", "p99_ms", "power_w")),
            "mirror_sa4_pos_mean_ms", "mirror_sa4_queue_mean_ms",
            "mirror_conv_pos_mean_ms", "mirror_conv_queue_mean_ms",
            "cpu_count",
        ],
        "gates": [
            # Conservation: every rebuilt chunk is exactly one spare
            # write, and foreground completions stay exactly-once.
            "conservation_ok == 1",
            *(f"{cfg}_rebuilding_chunks == {cfg}_rebuilding_spare_writes"
              for cfg in REBUILD_CONFIGS),
            *(f"{cfg}_rebuilding_window_s > 0" for cfg in REBUILD_CONFIGS),
            # The pure rebuild path allocates nothing in steady state.
            "rebuild_steady_allocs == 0",
            # Degraded + rebuilding phases under the dynamic-horizon
            # engine (1/4/8 workers) are byte-identical to serial, and
            # the horizon-computation path adds no steady-state allocs.
            "pdes_rebuild_matches_serial == 1",
            "pdes_rebuild_steady_allocs == 0",
            # Positioning-priced replica dispatch beats (or at worst
            # ties) the queue policy in at least one mirror config.
            "positioning_best_gain_pct >= 0",
        ],
    },
    "serve": {
        "required": [
            "serve_points", "serve_points_per_sec",
            "power_w_conventional", "power_w_sa4",
            "million_tenants", "million_completions",
            "million_peak_pending", "session_bytes",
        ],
        "gates": [
            # Zero steady-state allocations in the serving layer: two
            # deny-storm runs of different lengths allocate identically.
            "deny_steady_allocs == 0",
            "deny_extra_wakes > 0",
            # Per-request allocations through the whole stack stay
            # bounded at the largest tenant count: no per-session,
            # per-wake or per-request growth. The nonzero floor is the
            # run's fixed set-up spread over its requests (0.099 in
            # smoke mode when the bound was set; 5x headroom).
            "million_allocs_per_request <= 0.5",
            # Speculative retraction accounting closes exactly: every
            # armed event is cancelled once (live or stale), every
            # stale cancel is a fired submission or a suppressed one,
            # and the kernel agrees.
            "spec_armed_total"
            " == spec_cancel_live_total + spec_cancel_stale_total",
            "spec_cancel_stale_total"
            " == spec_submitted_total + spec_suppressed_total",
            "kernel_stale_cancels == spec_cancel_stale_total",
            "spec_cancel_live_total > 0",
            # The SA(4) array must provision at least as many tenants
            # under the p99 SLO as the conventional one.
            "break_tenants_conventional <= break_tenants_sa4",
        ],
    },
    "governor": {
        "required": [
            "cpu_count",
            *(f"{fam}_{stat}" for fam in GOVERNOR_FAMILIES
              for stat in ("governor_energy_j", "energy_savings_pct")),
            *(f"{fam}_static{rpm}_{stat}" for fam in GOVERNOR_FAMILIES
              for rpm in (7200, 6200, 5200, 4200)
              for stat in ("p99_ms", "energy_j")),
        ],
        "gates": [
            # Iso-SLO dominance and the zero-alloc control path.
            "governor_ok == 1",
            "governor_steady_allocs == 0",
            # Governed runs under the dynamic-horizon engine (1/4/8
            # workers, controlTick horizon barriers) reproduce the
            # serial p99 / energy / completions exactly.
            "pdes_governed_matches_serial == 1",
            # The headline claim: a >= 10% energy saving on at least
            # one family at iso-SLO.
            "best_energy_savings_pct >= 10.0",
            *(f"{fam}_governor_p99_ms <= {fam}_slo_ms"
              for fam in GOVERNOR_FAMILIES),
        ],
    },
}


def metric_names(gate):
    """The metric names a gate reads, in order of appearance."""
    return compile(gate, "<gate>", "eval").co_names


def read_report(path):
    """Return (bench, {metric: value}, [problem]) for the report at
    path; bench is None when the report cannot be checked at all."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        return None, {}, [f"cannot read report: {err}"]
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        schema = doc.get("schema") if isinstance(doc, dict) else None
        return None, {}, [f"schema is {schema!r}, not {SCHEMA!r}"]
    bench = doc.get("bench")
    if not isinstance(bench, str) or bench not in BENCHES:
        return None, {}, [f"unknown bench {bench!r}"]
    if not isinstance(doc.get("metrics"), list):
        return None, {}, ["no metrics list"]
    values, problems = {}, []
    for m in doc["metrics"]:
        if (not isinstance(m, dict) or set(m) != {"name", "value", "unit"}
                or not isinstance(m["name"], str)
                or type(m["value"]) not in (int, float)):
            problems.append(f"malformed metric {m!r}: want exactly "
                            "{name, value, unit} with a numeric value")
        elif m["name"] in values:
            problems.append(f"metric {m['name']!r} repeats")
        else:
            values[m["name"]] = m["value"]
    return bench, values, problems


def check(path):
    """Print one line per problem and per gate of the report at path;
    return how many failed."""
    bench, values, problems = read_report(path)
    for problem in problems:
        print(f"FAIL    {path}: {problem}")
    if bench is None:
        return len(problems)
    spec = BENCHES[bench]
    speedup_gates = spec.get("speedup_gates", [])
    gates = spec["gates"] + speedup_gates
    required = set(spec["required"]).union(*map(metric_names, gates))
    missing = sorted(required - set(values))
    if missing:
        print(f"FAIL    {bench}: missing metrics {', '.join(missing)}")
    failed = len(problems) + bool(missing)
    cores = int(values.get("cpu_count", 0)) or os.cpu_count() or 1
    for gate in gates:
        names = metric_names(gate)
        measured = ", ".join(f"{n}={values[n]:g}" for n in names
                             if n in values)
        absent = [n for n in names if n not in values]
        note = ""
        if absent:
            status, note = "FAIL", f" missing {', '.join(absent)}"
        elif gate in speedup_gates and cores < SPEEDUP_MIN_CORES:
            status = "SKIPPED"
            note = (f" report cpu_count={cores} < {SPEEDUP_MIN_CORES}:"
                    " a small runner cannot produce a meaningful"
                    " 4-worker scaling figure")
        elif eval(gate, {"__builtins__": {}}, values):
            status = "ok"
        else:
            status = "FAIL"
        failed += status == "FAIL"
        print(f"{status:<7} {bench}: {gate}  [{measured}]{note}")
    return failed


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    failed = sum(check(path) for path in sys.argv[1:])
    print(f"bench_check: {failed} failed" if failed
          else "bench_check: no failures")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
