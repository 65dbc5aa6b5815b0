#!/usr/bin/env python3
"""End-to-end benchmark of the PathExpander reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds `pebench` (perfbench/pebench.cc,
linked against ../src) into .bench_build/perfbench, then starts one
fresh `pebench` process per session, back to back, for S seconds.
Every session runs the whole workload once on inputs made from the
seed; every session's result digest and simulated outcomes are checked
against perfbench/expected.json.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over sessions).
--trace 1 alternates untraced and traced sessions and reports the
per-layer metrics from the traced ones, plus trace_overhead_pct.
The exit status is 1 when any output check failed.

Workloads, metrics and the reasons behind them: perfbench/WORKLOADS.md.
Maintenance flags: --record rewrites expected.json from the current
program; --perturb runs a deliberately wrong config (the check must
then fail).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
BINARY = BUILD / "pebench"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("detect", "overhead", "explore", "explore_path")
# Runs one session attempts; a session that dies counts all as failed.
SESSION_RUNS = {"detect": 900, "overhead": 450, "explore": 1200,
                "explore_path": 1200}
# Session k of a run gets pebench seed (seed + k); traced runs give a
# plain/traced pair the same one.  Explorers draw their master seed from
# that mod EXPLORE_SLOTS (pebench.cc kExploreSlots), so a run of eight or
# more sessions covers every slot; campaigns use it only to order jobs.
EXPLORE_SLOTS = 8
SESSION_TIMEOUT_S = 120

# Outcomes a session must reproduce exactly.
CHECKED = ("digest", "config_hash", "runs", "edges", "bugs_detected",
           "cover_completed", "cycles_off", "cycles_standard", "cycles_cmp")

TIMINGS = ("minic.compile_ms", "analysis.verify_ms",
           "analysis.primepaths_ms", "core.engine_build_us",
           "core.run_floor_us", "core.run_us.off", "core.run_us.standard",
           "core.run_us.cmp", "core.run_us.cold", "core.run_us.warm",
           "detect.analyze_us", "coverage.merge_us",
           "coverage.pathcov_fold_us", "explore.batch_ms")
NT_CAUSES = ("max_length", "crash", "unsafe_event", "program_end",
             "capacity_overflow", "forced_squash", "host_abort")
COUNTS = ("core.campaign_busy_frac", "sim.insts_taken", "sim.insts_nt",
          "sim.insts_pruned", "core.nt_spawned",
          "mem.l2_contention_cycles", "detect.reports",
          "coverage.trace_events", "explore.admitted", "explore.corpus",
          "analysis.prime_paths", "analysis.path_cover"
          ) + tuple("core.nt_stop." + c for c in NT_CAUSES)
LAYERS = ("minic", "analysis", "core", "detect", "coverage", "explore",
          "bench")


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure, then (re)build only the pebench target."""
    cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", str(BUILD), "--target", "pebench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_session(workload, seed, trace, perturb, spans):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", str(spans)]
    if perturb:
        cmd.append("--perturb")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("session timed out")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log("session failed:", proc.stderr.strip()[-500:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(session, expected):
    """Names of the checked outcomes the session got wrong."""
    want = expected.get(session["workload"], {}).get(str(session["slot"]))
    if want is None:
        return ["no recorded result for slot %s" % session["slot"]]
    bad = [k for k in CHECKED if session[k] != want[k]]
    counts = session.get("counts", {})
    for k in ("trace.serial_mismatch", "coverage.fold_mismatch"):
        if counts.get(k, 0) != 0:
            bad.append(k)
    return bad


def quantile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail(values):
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return quantile(values, pct / 100.0), pct
    return statistics.median(values), 0.0


def median_of(sessions, fn):
    return statistics.median(fn(s) for s in sessions)


def end_to_end(sessions):
    return {
        "runs_per_s": (median_of(sessions, lambda s: s["runs"] / s["wall_s"]),
                       "runs/s"),
        "sim_mips": (median_of(
            sessions, lambda s: s["sim_insts"] / (s["wall_s"] * 1e6)), "MIPS"),
        "setup_s": (median_of(sessions, lambda s: s["setup_s"]), "s"),
        "peak_rss_mb": (median_of(sessions, lambda s: s["peak_rss_mb"]), "MB"),
        "edges": (median_of(sessions, lambda s: s["edges"]), "count"),
    }


def per_layer(traced, plain, attempted, failed):
    m = {}
    for name in TIMINGS:
        pooled = [v for s in traced for v in s["samples"].get(name, [])]
        unit = "ms" if "_ms" in name else "us"
        if pooled:
            hi, pct = tail(pooled)
            m[name] = (statistics.median(pooled), unit)
            m[name + ".p_hi"] = (hi, unit)
            m[name + ".p_hi_q"] = (pct, "percentile")
        else:
            m[name] = (0.0, unit)
            m[name + ".p_hi"] = (0.0, unit)
            m[name + ".p_hi_q"] = (0.0, "percentile")
        m[name + ".n"] = (len(pooled), "count")

    def count(s, key):
        return s["counts"].get(key, 0.0)

    for name in COUNTS:
        unit = "fraction" if name.endswith("_frac") else (
            "cycles" if name.endswith("cycles") else "count")
        m[name] = (median_of(traced, lambda s: count(s, name)), unit)
    stops = median_of(traced, lambda s: sum(
        count(s, "core.nt_stop." + c) for c in NT_CAUSES))
    lens = median_of(traced, lambda s: count(s, "core.nt_len_total"))
    m["core.nt_mean_len"] = (lens / stops if stops else 0.0, "insts")
    for mode in ("off", "standard", "cmp"):
        m["core.cycles." + mode] = (
            median_of(traced, lambda s: s["cycles_" + mode]), "cycles")
    s0 = traced[0]
    off = s0["cycles_off"]
    m["sim_overhead_std"] = (s0["cycles_standard"] / off if off else 0.0,
                             "ratio")
    m["sim_overhead_cmp"] = (s0["cycles_cmp"] / off if off else 0.0, "ratio")
    m["bugs_detected"] = (s0["bugs_detected"], "count")
    m["cover_completed"] = (s0["cover_completed"], "count")
    m["failed_frac"] = (failed / attempted, "fraction")

    wall = median_of(traced, lambda s: count(s, "explore.step_wall_us"))
    own = median_of(traced, lambda s: count(s, "explore.step_self_us"))
    m["explore.self_frac"] = (own / wall if wall else 0.0, "fraction")
    runs = median_of(traced, lambda s: count(s, "explore.runs"))
    m["explore.admit_ratio"] = (
        m["explore.admitted"][0] / runs if runs else 0.0, "fraction")
    for layer in LAYERS:
        m["self_ms." + layer] = (
            median_of(traced, lambda s: count(s, "self_ms." + layer)), "ms")
    untraced = median_of(traced, lambda s: count(s, "trace.serial_untraced_ms"))
    spanned = median_of(traced, lambda s: count(s, "trace.serial_selfsum_ms"))
    m["trace.selfsum_gap_pct"] = (
        100.0 * (spanned - untraced) / untraced if untraced else 0.0, "%")
    rate_plain = median_of(plain, lambda s: s["runs"] / s["wall_s"])
    rate_traced = median_of(traced, lambda s: s["runs"] / s["wall_s"])
    m["trace_overhead_pct"] = (
        100.0 * (rate_plain - rate_traced) / rate_plain, "%")
    m["bench.workers"] = (s0["workers"], "count")
    return m


def record():
    """Rewrite expected.json from the program as it is now."""
    table = {}
    for workload in WORKLOADS:
        slots = EXPLORE_SLOTS if workload.startswith("explore") else 1
        table[workload] = {}
        for slot in range(slots):
            s = run_session(workload, slot, False, False, None)
            if s is None:
                return 1
            table[workload][str(slot)] = {k: s[k] for k in CHECKED}
            log("recorded", workload, "slot", slot, s["digest"])
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        log("build failed")
        return 1
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    expected = json.loads(EXPECTED.read_text())

    spans_dir = BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)
    for old in spans_dir.glob(args.workload + "-*.jsonl"):
        old.unlink()

    plain, traced = [], []
    attempted = failed = 0
    deadline = time.monotonic() + args.seconds
    k = 0
    while True:
        # Traced runs alternate plain/traced sessions so the trace
        # overhead compares like with like.
        trace = args.trace == 1 and k % 2 == 1
        seed = args.seed + (k // 2 if args.trace else k)
        spans = spans_dir / ("%s-%d-%d.jsonl" % (args.workload, args.seed, k))
        s = run_session(args.workload, seed, trace, args.perturb,
                        spans if trace else None)
        k += 1
        if s is None:
            attempted += SESSION_RUNS[args.workload]
            failed += SESSION_RUNS[args.workload]
        else:
            attempted += s["runs"]
            bad = check(s, expected)
            if bad:
                log("session %d output mismatch: %s" % (k, ", ".join(bad)))
                failed += s["runs"]
            else:
                failed += s["failed_runs"]
            (traced if trace else plain).append(s)
        done = time.monotonic() >= deadline
        if done and plain and (traced or args.trace == 0):
            break
        if done and k >= 4:
            break

    if not plain or (args.trace == 1 and not traced):
        log("no session completed")
        return 1
    s0 = plain[0]
    print("# workload=%s seed=%d sessions=%d workers=%d config_hash=%s "
          "digest=%s" % (args.workload, args.seed, len(plain) + len(traced),
                         s0["workers"], s0["config_hash"], s0["digest"]))
    metrics = (per_layer(traced, plain, attempted, failed) if args.trace
               else end_to_end(plain))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
