"""Telemetry overhead benchmark: the instrumented dispatch path vs bare.

The repro.obs design contract is that observability is (a) *free* when
disabled -- the serving tail pays two shared null spans and one
``telemetry.enabled()`` branch -- and
(b) *cheap* when enabled: spans on ``time.perf_counter_ns``, counter
bumps under one lock, and a bounded dispatch ring.  This benchmark holds
the contract to a number: the median warm-dispatch call with telemetry
enabled must stay within ``max_obs_overhead_ratio`` (checked in at
``benchmarks/workspace_threshold.json``, 1.03 = 3%) of the same call
with telemetry disabled.

Methodology: a pre-seeded in-memory plan cache makes every call a pure
warm dispatch (cache hit, reused arena, reused pool -- the steady state
PR 3/4 built); enabled/disabled trials are interleaved so background
drift charges both paths equally; the ratio is the min over a few
retries because a single noisy scheduling event should not fail CI.

The report also embeds a full telemetry snapshot from a short multicore
run (dfs at min(4, cores) workers) so the CI artifact doubles as a
live sample of the span/counter schema downstream dashboards consume.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py [--quick] \
        [--json BENCH_obs.json] [--max-ratio R]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from bench_workspace import interleaved_medians
from repro import obs
from repro.parallel.pool import available_cores
from repro.tuner import PlanCache, matmul, reset_workspaces
from repro.tuner.space import Plan
from repro.util.matrices import random_matrix

THRESHOLD_FILE = Path(__file__).parent / "workspace_threshold.json"
RETRIES = 3


def _seeded_cache(tmpdir_free_path: Path, n: int, threads: int) -> PlanCache:
    """In-memory plan cache holding one dfs plan for the benchmark shape,
    so every timed call resolves source=cache with zero tuning."""
    cache = PlanCache(tmpdir_free_path)
    plan = Plan(algorithm="strassen", steps=2, scheme="dfs", threads=threads)
    cache.put(n, n, n, "float64", threads, plan, seconds=0.01, gflops=1.0)
    return cache


def measure_overhead(n: int, trials: int) -> dict:
    """Median warm-dispatch seconds with telemetry off vs on (min ratio
    over RETRIES interleaved rounds)."""
    cache = _seeded_cache(Path("/nonexistent/bench_obs_plans.json"), n, 1)
    A = random_matrix(n, n, 0)
    B = random_matrix(n, n, 1)
    out = np.empty((n, n))

    def call():
        matmul(A, B, threads=1, cache=cache, out=out)

    def run_disabled():
        obs.disable()
        call()

    def run_enabled():
        obs.enable()
        call()

    # warm both paths: plan cache, workspace arena, worker pool, BLAS
    obs.disable()
    call()
    obs.enable()
    call()

    best = None
    for _ in range(RETRIES):
        t_off, t_on = interleaved_medians(run_disabled, run_enabled, trials)
        ratio = t_on / t_off if t_off > 0 else float("inf")
        row = {"seconds_disabled": t_off, "seconds_enabled": t_on,
               "overhead_ratio": ratio}
        if best is None or row["overhead_ratio"] < best["overhead_ratio"]:
            best = row
    obs.disable()
    obs.reset()
    best.update({"n": n, "trials": trials, "retries": RETRIES})
    return best


def multicore_snapshot(n: int, calls: int) -> dict:
    """Run a few instrumented multicore dispatches and return the full
    telemetry snapshot -- the artifact's sample of the metric schema."""
    threads = min(4, available_cores())
    cache = _seeded_cache(Path("/nonexistent/bench_obs_plans.json"),
                          n, threads)
    A = random_matrix(n, n, 2)
    B = random_matrix(n, n, 3)
    out = np.empty((n, n))

    obs.disable()
    obs.reset()
    obs.enable()
    for _ in range(calls):
        matmul(A, B, threads=threads, cache=cache, out=out)
    snap = obs.snapshot(reset_after=True)
    obs.disable()
    snap["_threads"] = threads
    snap["_calls"] = calls
    return snap


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller size / fewer trials (the CI smoke job)")
    ap.add_argument("--json", type=Path, default=Path("BENCH_obs.json"))
    ap.add_argument("--max-ratio", type=float, default=None,
                    help="fail if enabled/disabled median ratio exceeds "
                         "this (default: benchmarks/workspace_threshold"
                         ".json max_obs_overhead_ratio)")
    args = ap.parse_args(argv)

    threshold = args.max_ratio
    if threshold is None:
        try:
            threshold = json.loads(THRESHOLD_FILE.read_text())[
                "max_obs_overhead_ratio"]
        except (OSError, KeyError, ValueError):
            threshold = 1.03

    n = 192 if args.quick else 256
    trials = 31 if args.quick else 101

    reset_workspaces()
    row = measure_overhead(n, trials)
    print(f"warm dispatch n={n}: disabled "
          f"{row['seconds_disabled'] * 1e3:.3f} ms/call, enabled "
          f"{row['seconds_enabled'] * 1e3:.3f} ms/call -> overhead "
          f"x{row['overhead_ratio']:.4f} (gate x{threshold:.2f})")

    snap = multicore_snapshot(n, calls=3 if args.quick else 10)
    spans = ", ".join(sorted({s["name"] for s in snap["spans"]}))
    print(f"multicore snapshot ({snap['_threads']} workers): "
          f"{len(snap['counters'])} counters, {len(snap['spans'])} span "
          f"series [{spans}]")

    ok = row["overhead_ratio"] <= threshold
    report = {
        "benchmark": "obs-overhead",
        "quick": args.quick,
        "max_obs_overhead_ratio": threshold,
        "overhead": row,
        "pass": ok,
        "multicore_snapshot": snap,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    args.json.write_text(json.dumps(report, indent=1))
    print(f"wrote {args.json}; overhead x{row['overhead_ratio']:.4f} vs "
          f"gate x{threshold:.2f} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
