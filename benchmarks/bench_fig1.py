"""Figure 1: sequential effective performance on N x N x N -- generated
Strassen vs the vendor dgemm vs a tuned Strassen-Winograd.

Paper claim: the generated code easily outperforms MKL for large N and is
competitive with the hand-tuned Winograd implementation.  Our "tuned"
stand-in is the Winograd variant with CSE (fewer additions, reused
intermediates), the baseline is plain Strassen; both are the sequential
product dispatch serves (``compile_algorithm``: the compiled step).
"""

from conftest import bench_once

from repro.algorithms import get_algorithm
from repro.bench.metrics import effective_gflops, median_time
from repro.bench.workloads import scaled, square
from repro.codegen import compile_algorithm
from repro.parallel import blas

SIZES = [scaled(n) for n in (512, 768, 1024, 1536, 2048)]


def test_fig1(benchmark):
    strassen = compile_algorithm(get_algorithm("strassen"))
    winograd = compile_algorithm(get_algorithm("winograd"), cse=True)

    rows = []
    with blas.blas_threads(1):
        for n in SIZES:
            A, B = square(n).matrices()
            t_mkl = median_time(lambda: A @ B, trials=3)
            t_str = min(
                median_time(lambda: strassen(A, B, steps=s), trials=3)
                for s in (1, 2)
            )
            t_win = min(
                median_time(lambda: winograd(A, B, steps=s), trials=3)
                for s in (1, 2)
            )
            rows.append((n, effective_gflops(n, n, n, t_mkl),
                         effective_gflops(n, n, n, t_str),
                         effective_gflops(n, n, n, t_win)))

    A, B = square(SIZES[-1]).matrices()
    with blas.blas_threads(1):
        bench_once(benchmark, lambda: strassen(A, B, steps=2))

    print("\n== Figure 1: sequential N x N x N (effective GFLOPS) ==")
    print(f"{'N':>6} {'dgemm':>10} {'strassen':>10} {'winograd+cse':>13}")
    for n, g_mkl, g_str, g_win in rows:
        print(f"{n:>6} {g_mkl:>10.2f} {g_str:>10.2f} {g_win:>13.2f}")
    big = rows[-1]
    print(f"paper-shape check: strassen beats dgemm at N={big[0]}: "
          f"{'PASS' if big[2] > big[1] else 'MISS'} "
          f"({big[2] / big[1]:.3f}x)")
    assert len(rows) == len(SIZES)
