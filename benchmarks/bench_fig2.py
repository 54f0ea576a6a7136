"""Figure 2: CSE on the step, 1 and 2 steps, beside the Section 3.2 model.

Panels: <4,2,4> on N x K x N (outer-product shape) and <4,2,3> on
N x N x N.  Paper finding: write-once without CSE is the best default;
pairwise is slowest (more reads/writes); CSE can hurt write-once.

The step forms every chain in fused write-once passes, so the timed axis
is CSE on and off; the three addition strategies are the read/write
counts of :func:`repro.core.cost.addition_rw_counts`, printed beside.
"""

import math

from conftest import bench_once

from repro.algorithms import get_algorithm
from repro.bench.metrics import effective_gflops, median_time
from repro.bench.workloads import outer, scaled, square
from repro.codegen import compile_algorithm
from repro.core.cost import addition_rw_counts
from repro.parallel import blas

VARIANTS = (False, True)
STRATEGIES = ("pairwise", "write_once", "streaming")


def _sweep(alg_name, workloads, steps_options):
    alg = get_algorithm(alg_name)
    rows = []
    with blas.blas_threads(1):
        for wl in workloads:
            A, B = wl.matrices()
            t_gemm = median_time(lambda: A @ B, trials=3)
            per_variant = {}
            for cse in VARIANTS:
                f = compile_algorithm(alg, cse)
                for steps in steps_options:
                    sec = median_time(lambda: f(A, B, steps=steps), trials=3)
                    per_variant[(cse, steps)] = effective_gflops(
                        wl.p, wl.q, wl.r, sec
                    )
            rows.append((wl, effective_gflops(wl.p, wl.q, wl.r, t_gemm),
                         per_variant))
    return rows


def _print_panel(title, alg_name, rows, steps_options):
    print(f"\n== Figure 2 panel: {title} ==")
    counts = {s: addition_rw_counts(get_algorithm(alg_name), s)
              for s in STRATEGIES}
    print("Section 3.2 model, submatrix reads/writes per level: " + ", ".join(
        f"{s} {rd}/{wr}" for s, (rd, wr) in counts.items()))
    hdr = f"{'workload':<16} {'dgemm':>8}"
    for c in VARIANTS:
        hdr += f" {'step+cse' if c else 'step':>11}"
    for steps in steps_options:
        print(f"-- {steps} recursive step(s) --")
        print(hdr)
        for wl, g_gemm, pv in rows:
            line = f"{wl.label:<16} {g_gemm:>8.2f}"
            for c in VARIANTS:
                line += f" {pv[(c, steps)]:>11.2f}"
            print(line)


def _assert_rates(rows):
    """Every timed variant ran and produced a finite, positive rate."""
    assert rows
    for _, g_gemm, pv in rows:
        assert math.isfinite(g_gemm) and g_gemm > 0
        assert all(math.isfinite(g) and g > 0 for g in pv.values()), pv


def test_fig2_424_outer(benchmark):
    wls = [outer(scaled(n), scaled(416)) for n in (768, 1280)]
    rows = _sweep("s424", wls, (1, 2))
    _print_panel("<4,2,4> on N x K x N", "s424", rows, (1, 2))
    A, B = wls[-1].matrices()
    f = compile_algorithm(get_algorithm("s424"))
    with blas.blas_threads(1):
        bench_once(benchmark, lambda: f(A, B, steps=1))
    _assert_rates(rows)


def test_fig2_423_square(benchmark):
    wls = [square(scaled(n)) for n in (768, 1280)]
    rows = _sweep("s423", wls, (1, 2))
    _print_panel("<4,2,3> on N x N x N", "s423", rows, (1, 2))
    A, B = wls[-1].matrices()
    f = compile_algorithm(get_algorithm("s423"))
    with blas.blas_threads(1):
        bench_once(benchmark, lambda: f(A, B, steps=1))
    _assert_rates(rows)
