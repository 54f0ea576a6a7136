"""Workspace-arena benchmark: allocated bytes per call + warm throughput.

Measures, for repeated mid-size products on the paper's two profitable
parallel schemes (``dfs``, ``hybrid``) plus the sequential interpreter:

- **allocated bytes per call** on the historical allocating path vs the
  warm arena-backed path (``out=`` + ``workspace=``), probed with the
  tracemalloc tracking allocator of :mod:`repro.core.workspace`;
- **repeated-call throughput** of both paths (median seconds/call), i.e.
  the steady-state win of eliminating allocator traffic and page faults
  from the recursion/schedule/dispatch hot loops.

The ``sequential`` rows are what ``tuner.dispatch`` serves for a
sequential plan the compiled kernels do not (no compiler, a dtype pair
without a kernel dtype): the interpreter in its Section 4.1 arena.  One more row goes
through ``repro.matmul`` itself: ten (plan, shape) pairs served round-robin
on one thread, whose second sweep must find the thread's one arena warm.

Emits ``BENCH_workspace.json`` and exits non-zero when the warm path's
allocated bytes regress above the checked-in threshold
(``benchmarks/workspace_threshold.json``) -- the CI smoke job runs
``--quick`` on every push.

Usage::

    PYTHONPATH=src python benchmarks/bench_workspace.py [--quick] \
        [--json BENCH_workspace.json] [--max-warm-bytes N]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.algorithms import get_algorithm
from repro.core.recursion import multiply
from repro.core.workspace import Workspace, track_allocations
from repro.parallel import blas
from repro.parallel.pool import WorkerPool, available_cores
from repro.parallel.schedules import multiply_parallel, parallel_footprint
from repro.tuner import Plan, PlanCache, matmul, workspace_for
from repro.tuner.dispatch import plan_footprint
from repro.util.matrices import random_matrix

THRESHOLD_FILE = Path(__file__).parent / "workspace_threshold.json"

#: (n, dtype) grid: the tuner's bread-and-butter mid-size repeated matmuls;
#: the odd sizes exercise dynamic peeling (the fix-up products must come
#: from the arena too, or non-divisible shapes regress silently)
FULL_SIZES = (1024, 1025, 1536)
QUICK_SIZES = (256, 257)
DTYPES = ("float32", "float64")
SCHEMES = ("sequential", "dfs", "hybrid")
STEPS = 2


def interleaved_medians(fn_a, fn_b, trials: int) -> tuple[float, float]:
    """Median seconds/call of two paths, trials interleaved A/B/A/B so
    background-load drift hits both equally (sequential blocks would
    charge the drift to whichever ran second)."""
    ta: list[float] = []
    tb: list[float] = []
    for _ in range(trials):
        t0 = time.perf_counter()
        fn_a()
        ta.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        tb.append(time.perf_counter() - t0)
    ta.sort()
    tb.sort()
    return ta[len(ta) // 2], tb[len(tb) // 2]


def bench_config(scheme: str, dtype: str, n: int, steps: int,
                 pool: WorkerPool, threads: int, trials: int) -> dict:
    alg = get_algorithm("strassen")
    A = random_matrix(n, n, 0, dtype=np.dtype(dtype))
    B = random_matrix(n, n, 1, dtype=np.dtype(dtype))
    out = np.empty((n, n), dtype=np.result_type(A, B))

    if scheme == "sequential":
        ws = Workspace.for_recursion([alg.base_case] * steps, n, n, n,
                                     A.dtype, B.dtype)

        def run_alloc():
            with blas.blas_threads(threads):
                multiply(A, B, alg, steps=steps)

        def run_warm():
            with blas.blas_threads(threads):
                multiply(A, B, alg, steps=steps, out=out, workspace=ws)
    else:
        # sized for what the schedule runs (the compiled step for float64)
        ws = Workspace(parallel_footprint(alg, steps, scheme, n, n, n,
                                          A.dtype, B.dtype, threads=threads))

        def run_alloc():
            multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                              pool=pool, threads=threads)

        def run_warm():
            multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                              pool=pool, threads=threads, out=out,
                              workspace=ws)

    run_alloc()  # warm numpy/BLAS internals
    run_warm()   # warm the arena (first call sizes nothing, it's prebuilt)

    with track_allocations() as rep_alloc:
        run_alloc()
    with track_allocations() as rep_warm:
        run_warm()
    t_alloc, t_warm = interleaved_medians(run_alloc, run_warm, trials)

    return {
        "scheme": scheme,
        "dtype": dtype,
        "n": n,
        "steps": steps,
        "algorithm": alg.name,
        "alloc_bytes_per_call": rep_alloc.peak_bytes,
        "warm_bytes_per_call": rep_warm.peak_bytes,
        "seconds_allocating": t_alloc,
        "seconds_warm": t_warm,
        "speedup": t_alloc / t_warm if t_warm > 0 else float("inf"),
        "arena_bytes": ws.nbytes,
        "arena_overflows": ws.overflow_allocations,
    }


def bench_dispatch(threads: int) -> dict:
    """``repro.matmul(A, B, out=C)`` round-robin over ten (plan, shape)
    pairs from a private plan cache, on one thread: the first sweep grows
    the thread's arena to the largest footprint (the ``alloc`` columns),
    the second must stay under the warm budget (the ``warm`` ones).  Every
    footprint is above that budget, so a dispatcher that rebuilds an arena
    when it moves between plans -- one arena per (plan, shape) behind a
    cache with fewer than ten slots did, on every call -- fails here."""
    plans = [Plan(algorithm="strassen", steps=1, threads=threads),
             Plan(algorithm="strassen", steps=2, threads=threads),
             Plan(algorithm="strassen", steps=1, scheme="dfs",
                  threads=threads),
             Plan(algorithm="strassen", steps=2, scheme="hybrid",
                  threads=threads),
             Plan(algorithm="winograd", steps=1, threads=threads)]
    pairs = [(plans[i % len(plans)], 640 + 8 * i) for i in range(10)]
    side = max(n for _, n in pairs)
    A, B = random_matrix(side, side, 2), random_matrix(side, side, 3)
    out = np.empty((side, side))
    worst_bytes, median_s = [], []  # per sweep: the cold one, the warm one
    with tempfile.TemporaryDirectory() as tmp:
        cache = PlanCache(Path(tmp) / "plans.json")
        for plan, n in pairs:
            cache.put(n, n, n, "float64", threads, plan)
        for _ in range(2):
            calls = []
            for plan, n in pairs:
                t0 = time.perf_counter()
                with track_allocations() as rep:
                    matmul(A[:n, :n], B[:n, :n], threads=threads,
                           cache=cache, out=out[:n, :n])
                calls.append((rep.peak_bytes, time.perf_counter() - t0))
            worst_bytes.append(max(nbytes for nbytes, _ in calls))
            median_s.append(sorted(sec for _, sec in calls)[len(calls) // 2])
    plan, n = pairs[-1]
    return {
        "scheme": f"dispatch x{len(pairs)}",
        "dtype": "float64",
        "n": side,
        "steps": STEPS,
        "algorithm": "strassen/winograd, 1-2 steps",
        "alloc_bytes_per_call": worst_bytes[0],
        "warm_bytes_per_call": worst_bytes[1],
        "seconds_allocating": median_s[0],
        "seconds_warm": median_s[1],
        "speedup": median_s[0] / median_s[1],
        "arena_bytes": max(plan_footprint(plan, n, n, n, A.dtype, B.dtype)
                           for plan, n in pairs),
        "arena_overflows": workspace_for(
            plan, n, n, n, A.dtype, B.dtype).overflow_allocations,
    }


def _print_row(row: dict) -> None:
    print(f"{row['scheme']:18s} {row['dtype']:8s} n={row['n']:5d}  "
          f"alloc {row['alloc_bytes_per_call'] / 1e6:8.2f} MB/call "
          f"-> warm {row['warm_bytes_per_call'] / 1e6:8.3f} MB/call  "
          f"| {row['seconds_allocating'] * 1e3:8.2f} ms "
          f"-> {row['seconds_warm'] * 1e3:8.2f} ms "
          f"(x{row['speedup']:.2f})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small sizes / few trials (the CI smoke job)")
    ap.add_argument("--json", type=Path, default=Path("BENCH_workspace.json"))
    ap.add_argument("--max-warm-bytes", type=int, default=None,
                    help="fail if any warm path allocates more than this "
                         "(default: benchmarks/workspace_threshold.json)")
    args = ap.parse_args(argv)

    threshold = args.max_warm_bytes
    if threshold is None:
        try:
            threshold = json.loads(THRESHOLD_FILE.read_text())[
                "max_warm_alloc_bytes"]
        except (OSError, KeyError, ValueError):
            threshold = 1 << 20

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    trials = 5 if args.quick else 9
    threads = min(4, available_cores())

    rows = []
    with WorkerPool(threads) as pool:
        for n in sizes:
            for dtype in DTYPES:
                for scheme in SCHEMES:
                    row = bench_config(scheme, dtype, n, STEPS, pool,
                                       threads, trials)
                    rows.append(row)
                    _print_row(row)
    rows.append(bench_dispatch(threads))
    _print_row(rows[-1])

    worst_warm = max(r["warm_bytes_per_call"] for r in rows)
    ok = worst_warm <= threshold and all(
        r["arena_overflows"] == 0 for r in rows)
    report = {
        "benchmark": "workspace",
        "quick": args.quick,
        "threads": threads,
        "max_warm_alloc_bytes": threshold,
        "worst_warm_bytes": worst_warm,
        "pass": ok,
        "rows": rows,
    }
    args.json.write_text(json.dumps(report, indent=1))
    print(f"\nwrote {args.json}; worst warm path {worst_warm / 1e6:.3f} MB "
          f"vs threshold {threshold / 1e6:.3f} MB -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
