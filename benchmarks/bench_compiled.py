"""Compiled-backend benchmark: the C chain kernels vs the NumPy modules.

Measures warm serving throughput of a ``backend="compiled"`` plan --
``tuner.execute_plan`` driving the fused ``form_S``/``form_T``/``form_C``
C kernels through an arena -- against the *same plan* served by the
generated NumPy-source module, at mid sizes where the addition chains are
a visible share of each multiply (the regime the paper's C++ codegen
targets: one fused pass per chain instead of one NumPy pass per operand
pair).  Both paths run fully warm (compile + arena build land before any
timed call) and write into preallocated destinations, so the measured gap
is exactly the chain-formation traffic the compiled backend eliminates.

Also probes, with the tracking allocator, that a warm compiled call stays
under the per-call byte budget -- the compiled serving path must be as
allocation-free as the NumPy one.

Emits ``BENCH_compiled.json`` and exits non-zero when compiled throughput
drops below ``min_compiled_throughput_ratio`` x the NumPy-source path
(``benchmarks/workspace_threshold.json``) or the warm compiled call
allocates above the byte budget.  Hosts without a C toolchain exit 0 with
a ``"skipped"`` report -- absence of a compiler is a capability, not a
regression.

Usage::

    PYTHONPATH=src python benchmarks/bench_compiled.py [--quick] \
        [--json BENCH_compiled.json] [--min-ratio R]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.codegen import cbackend
from repro.core.workspace import track_allocations
from repro.tuner import Plan, dispatch, measure

THRESHOLD_FILE = Path(__file__).parent / "workspace_threshold.json"

#: the gate's square shapes: mid sizes where chain-formation traffic is a
#: visible share of the multiply but the leaf dgemm does not yet drown it
SIZES = (384, 512, 768)
STEPS = 2
DTYPE = "float64"
#: ... and a peeled outer product (every dimension odd, the paper's
#: N x k x N regime): the inner strip rides in ``form_C``, and the dense
#: <4,2,4> entry's 26-term chains only keep up while they vectorise
PEELED = (1499, 401, 1499)
GRID = ([("strassen", STEPS, (n, n, n)) for n in SIZES]
        + [("strassen", 1, PEELED), ("s424", 1, PEELED)])


def interleaved_medians(fn_a, fn_b, trials: int) -> tuple[float, float]:
    """Median seconds/call of two paths, trials interleaved A/B/A/B so
    background-load drift hits both equally."""
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


def bench_case(algorithm: str, steps: int, shape: tuple[int, int, int],
               trials: int, max_warm_bytes: int) -> dict:
    p, q, r = shape
    A, B = measure.tuning_operands(p, q, r, dtype=DTYPE, seed=0)
    plan_cc = Plan(algorithm=algorithm, steps=steps, scheme="sequential",
                   threads=1, backend="compiled")
    plan_np = dataclasses.replace(plan_cc, backend="numpy")
    C_cc = np.empty((p, r))
    C_np = np.empty((p, r))
    ws_cc = dispatch.build_workspace(plan_cc, p, q, r, A.dtype, B.dtype)
    ws_np = dispatch.build_workspace(plan_np, p, q, r, A.dtype, B.dtype)

    def run_compiled():
        dispatch.execute_plan(plan_cc, A, B, out=C_cc, workspace=ws_cc)

    def run_numpy():
        dispatch.execute_plan(plan_np, A, B, out=C_np, workspace=ws_np)

    # warm both paths: the one-off C compile + dlopen and both arenas
    # land here, never in a timed trial
    run_compiled()
    run_numpy()
    if not np.allclose(C_cc, C_np, atol=1e-8 * q):
        raise AssertionError(f"compiled result diverged at {shape}")

    with track_allocations() as rep_cc:
        run_compiled()
    t_np, t_cc = interleaved_medians(run_numpy, run_compiled, trials)

    return {
        "shape": list(shape),
        "steps": steps,
        "dtype": DTYPE,
        "plan": plan_cc.describe(),
        "seconds_numpy": t_np,
        "seconds_compiled": t_cc,
        "throughput_ratio": t_np / t_cc if t_cc > 0 else float("inf"),
        "compiled_bytes_per_call": rep_cc.peak_bytes,
        "compiled_overflows": ws_cc.stats()["overflow_allocations"],
        "warm_bytes_ok": rep_cc.peak_bytes <= max_warm_bytes,
    }


def _print_row(row: dict) -> None:
    print(f"{'x'.join(map(str, row['shape'])):>14}  "
          f"numpy {row['seconds_numpy'] * 1e3:8.2f} ms "
          f"-> compiled {row['seconds_compiled'] * 1e3:8.2f} ms "
          f"(x{row['throughput_ratio']:.2f})  "
          f"warm alloc {row['compiled_bytes_per_call'] / 1e6:.3f} MB  "
          f"[{row['plan']}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer trials (the CI smoke job)")
    ap.add_argument("--json", type=Path, default=Path("BENCH_compiled.json"))
    ap.add_argument("--min-ratio", type=float, default=None,
                    help="fail if compiled/numpy throughput drops below "
                         "this (default: benchmarks/workspace_threshold"
                         ".json min_compiled_throughput_ratio)")
    args = ap.parse_args(argv)

    if not cbackend.available():
        report = {"benchmark": "compiled", "skipped": True,
                  "reason": "no working C compiler", "pass": True}
        args.json.write_text(json.dumps(report, indent=1))
        print("no working C compiler; compiled benchmark skipped")
        return 0

    min_ratio = args.min_ratio
    max_warm_bytes = 1 << 20
    try:
        thresholds = json.loads(THRESHOLD_FILE.read_text())
        if min_ratio is None:
            min_ratio = thresholds["min_compiled_throughput_ratio"]
        max_warm_bytes = thresholds.get("max_warm_alloc_bytes",
                                        max_warm_bytes)
    except (OSError, KeyError, ValueError):
        if min_ratio is None:
            min_ratio = 1.0

    trials = 7 if args.quick else 15

    rows = []
    for algorithm, steps, shape in GRID:
        if args.quick and shape[0] == SIZES[-1]:
            continue
        row = bench_case(algorithm, steps, shape, trials, max_warm_bytes)
        rows.append(row)
        _print_row(row)

    worst_ratio = min(r["throughput_ratio"] for r in rows)
    ok = worst_ratio >= min_ratio and all(r["warm_bytes_ok"] for r in rows)
    report = {
        "benchmark": "compiled",
        "quick": args.quick,
        "steps": STEPS,
        "min_compiled_throughput_ratio": min_ratio,
        "max_warm_alloc_bytes": max_warm_bytes,
        "worst_throughput_ratio": worst_ratio,
        "pass": ok,
        "rows": rows,
    }
    args.json.write_text(json.dumps(report, indent=1))
    print(f"\nwrote {args.json}; worst compiled/numpy ratio "
          f"{worst_ratio:.2f}x vs threshold {min_ratio:.2f}x -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
