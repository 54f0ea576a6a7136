"""Batched-dispatch benchmark: one plan/arena/pool for a whole batch.

Measures warm batched throughput -- ``repro.tuner.matmul_batched`` over a
stack of same-shape products -- against a Python loop of per-call
``repro.tuner.matmul`` on the same operands, at the small/mid shapes
where per-call overhead (plan resolution, arena lookup, the serving
tail) is a visible share of each multiply (Section 3.4's below-the-knee
regime).  Both paths run the same plan, fully warm: the shape is tuned
and cached first, and both sides write into preallocated destinations,
so the measured gap is exactly the amortization the batched entry point
exists to provide.  NumPy's own stacked ``np.matmul`` at the same BLAS
thread count is timed beside them (``vs_stacked_blas``); a row whose
batch is served by plain BLAS -- which ``matmul_batched`` runs as that
very call -- must reach ``min_stacked_blas_ratio`` of it.

Also probes, with the tracking allocator, that a warm batched call stays
under the per-call byte budget -- one plan lookup + one arena for the
*whole batch*, allocation-free end to end.

Emits ``BENCH_batched.json`` and exits non-zero when batched throughput
drops below ``min_batched_throughput_ratio`` x the looped path, a
plain-BLAS row below ``min_stacked_blas_ratio`` x stacked ``np.matmul``
(both in ``benchmarks/workspace_threshold.json``), or the warm batched
call allocates above the byte budget -- the CI bench-smoke job runs
``--quick`` on every push.

Usage::

    PYTHONPATH=src python benchmarks/bench_batched.py [--quick] \
        [--json BENCH_batched.json] [--min-ratio R]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.workspace import track_allocations
from repro.parallel import blas
from repro.parallel.pool import available_cores
from repro.tuner import PlanCache, batched, dispatch, measure

THRESHOLD_FILE = Path(__file__).parent / "workspace_threshold.json"

#: the gate's shapes: square n below / at the float64 trivial boundary and
#: just above it -- the regime where per-call overhead dominates and
#: batching must win
SIZES = (128, 256)
BATCH = 16
DTYPE = "float64"


def interleaved_medians(fns, trials: int) -> list[float]:
    """Median seconds/call of each path, trials interleaved A/B/C/A/B/C
    so background-load drift hits every path equally."""
    times: list[list[float]] = [[] for _ in fns]
    for _ in range(trials):
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
    return [sorted(ts)[len(ts) // 2] for ts in times]


def bench_size(n: int, batch: int, threads: int, trials: int,
               cache: PlanCache, max_warm_bytes: int) -> dict:
    rng = np.random.default_rng(0)
    A = rng.standard_normal((batch, n, n)).astype(DTYPE)
    B = rng.standard_normal((batch, n, n)).astype(DTYPE)
    C_batched = np.empty((batch, n, n), dtype=np.result_type(A, B))
    C_looped = np.empty_like(C_batched)
    C_stacked = np.empty_like(C_batched)
    a_list, b_list = list(A), list(B)
    c_list = list(C_looped)

    # prime both paths: the per-call plan both run measured + cached,
    # arenas and pools built
    measure.tune_shape(n, n, n, dtype=DTYPE, threads=threads, trials=1,
                       budget_s=10.0, cache=cache, persist=False)

    def run_looped():
        for a, b, c in zip(a_list, b_list, c_list):
            dispatch.matmul(a, b, out=c, threads=threads, cache=cache)

    def run_batched():
        batched.matmul_batched(A, B, out=C_batched, threads=threads,
                               cache=cache)

    def run_stacked():
        with blas.blas_threads(threads):
            np.matmul(A, B, out=C_stacked)

    run_looped()
    run_batched()
    if not np.allclose(C_batched, C_looped, atol=1e-8 * n):
        raise AssertionError(f"batched result diverged at n={n}")

    with track_allocations() as rep_batched:
        run_batched()
    with track_allocations() as rep_looped:
        run_looped()
    t_looped, t_batched, t_stacked = interleaved_medians(
        (run_looped, run_batched, run_stacked), trials)

    bplan, source = batched.get_batch_plan(n, n, n, batch, dtype=DTYPE,
                                           threads=threads, cache=cache)
    return {
        "n": n,
        "batch": batch,
        "dtype": DTYPE,
        "threads": threads,
        "batch_plan": bplan.describe(),
        "batch_source": source,
        "seconds_looped": t_looped,
        "seconds_batched": t_batched,
        "seconds_stacked_blas": t_stacked,
        "throughput_ratio": t_looped / t_batched if t_batched > 0
                            else float("inf"),
        "vs_stacked_blas": t_stacked / t_batched if t_batched > 0
                           else float("inf"),
        "stacked_blas_gated": bplan.plan.is_dgemm,
        "looped_bytes_per_batch": rep_looped.peak_bytes,
        "batched_bytes_per_batch": rep_batched.peak_bytes,
        "warm_bytes_ok": rep_batched.peak_bytes <= max_warm_bytes,
    }


def _print_row(row: dict) -> None:
    print(f"n={row['n']:5d} batch={row['batch']:3d}  "
          f"looped {row['seconds_looped'] * 1e3:8.2f} ms "
          f"-> batched {row['seconds_batched'] * 1e3:8.2f} ms "
          f"(x{row['throughput_ratio']:.2f}; "
          f"x{row['vs_stacked_blas']:.2f} stacked np.matmul)  "
          f"warm alloc {row['batched_bytes_per_batch'] / 1e6:.3f} MB  "
          f"[{row['batch_plan']}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer trials (the CI smoke job)")
    ap.add_argument("--json", type=Path, default=Path("BENCH_batched.json"))
    ap.add_argument("--min-ratio", type=float, default=None,
                    help="fail if batched/looped throughput drops below "
                         "this (default: benchmarks/workspace_threshold"
                         ".json min_batched_throughput_ratio)")
    args = ap.parse_args(argv)

    min_ratio = args.min_ratio
    max_warm_bytes = 1 << 20
    min_stacked = 0.9
    try:
        thresholds = json.loads(THRESHOLD_FILE.read_text())
        if min_ratio is None:
            min_ratio = thresholds["min_batched_throughput_ratio"]
        max_warm_bytes = thresholds.get("max_warm_alloc_bytes",
                                        max_warm_bytes)
        min_stacked = thresholds.get("min_stacked_blas_ratio", min_stacked)
    except (OSError, KeyError, ValueError):
        if min_ratio is None:
            min_ratio = 1.0

    trials = 7 if args.quick else 15
    threads = min(4, available_cores())

    rows = []
    with tempfile.TemporaryDirectory() as td:
        cache = PlanCache(os.path.join(td, "plan_cache.json"))
        for n in SIZES:
            row = bench_size(n, BATCH, threads, trials, cache,
                             max_warm_bytes)
            rows.append(row)
            _print_row(row)

    worst_ratio = min(r["throughput_ratio"] for r in rows)
    gated = [r["vs_stacked_blas"] for r in rows if r["stacked_blas_gated"]]
    worst_stacked = min(gated, default=float("inf"))
    ok = (worst_ratio >= min_ratio and worst_stacked >= min_stacked
          and all(r["warm_bytes_ok"] for r in rows))
    report = {
        "benchmark": "batched",
        "quick": args.quick,
        "threads": threads,
        "batch": BATCH,
        "min_batched_throughput_ratio": min_ratio,
        "min_stacked_blas_ratio": min_stacked,
        "max_warm_alloc_bytes": max_warm_bytes,
        "worst_throughput_ratio": worst_ratio,
        "worst_stacked_blas_ratio": worst_stacked if gated else None,
        "pass": ok,
        "rows": rows,
    }
    args.json.write_text(json.dumps(report, indent=1))
    stacked = (f"; worst plain-BLAS batched/stacked np.matmul "
               f"{worst_stacked:.2f}x vs threshold {min_stacked:.2f}x"
               if gated else "; no row served by plain BLAS")
    print(f"\nwrote {args.json}; worst batched/looped ratio "
          f"{worst_ratio:.2f}x vs threshold {min_ratio:.2f}x{stacked} -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
