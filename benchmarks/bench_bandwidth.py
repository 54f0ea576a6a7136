"""Section 4.5: the shared-memory bandwidth bottleneck.

The paper's argument: gemm scales near-perfectly with cores, bandwidth
(STREAM) far worse (~5x on 24 cores), so the additions of fast algorithms
lose relative ground in parallel.  We measure both scalings on this node
and print the parallel-efficiency gap plus its downstream effect: the
addition/multiplication time ratio for one Strassen step, serial vs
parallel.
"""

from conftest import LARGE_CORES, bench_once

from repro.algorithms import get_algorithm
from repro.bench.metrics import median_time
from repro.bench.workloads import scaled, square
from repro.parallel import blas
from repro.parallel.add import measure_stream
from repro.parallel.pool import parallel_axpy


def test_bandwidth_vs_gemm_scaling(benchmark, pool):
    counts = sorted({1, LARGE_CORES})
    stream = measure_stream(pool, counts, size_mb=48)

    n = scaled(1024)
    A, B = square(n).matrices()
    gemm_times = {}
    for t in counts:
        with blas.blas_threads(t):
            gemm_times[t] = median_time(lambda: A @ B, trials=3)
    gemm_speedup = gemm_times[1] / gemm_times[counts[-1]]
    bw_speedup = stream.speedup()[-1]

    bench_once(benchmark, lambda: measure_stream(pool, [LARGE_CORES],
                                                 size_mb=16))
    print("\n== Section 4.5: scaling of gemm vs bandwidth ==")
    print(f"{'threads':>8} {'STREAM GiB/s':>13} {'gemm seconds':>13}")
    for i, t in enumerate(counts):
        print(f"{t:>8} {stream.bandwidth_gib_s[i]:>13.2f} "
              f"{gemm_times[t]:>13.4f}")
    print(f"gemm speedup {gemm_speedup:.2f}x vs bandwidth speedup "
          f"{bw_speedup:.2f}x on {counts[-1]} cores")
    print("paper: gemm ~100% parallel efficiency, additions ~20% "
          "(5x bandwidth on 24 cores)")
    assert stream.bandwidth_gib_s[0] > 0


def test_addition_share_grows_in_parallel(benchmark, pool):
    """Time one Strassen step's S/T/C additions vs its 7 multiplies,
    sequentially and with all cores: the addition share must not shrink
    (that is the scalability impediment)."""
    from repro.util.matrices import block_views

    alg = get_algorithm("strassen")
    n = scaled(1536)
    A, B = square(n).matrices()
    blocksA = block_views(A, 2, 2)
    import numpy as np

    S = np.empty_like(blocksA[0])

    def adds_serial():
        for r in range(alg.rank):
            col = alg.U[:, r]
            nz = col.nonzero()[0]
            if len(nz) > 1:
                np.copyto(S, blocksA[nz[0]])
                for i in nz[1:]:
                    np.add(S, blocksA[i], out=S)

    def adds_parallel():
        for r in range(alg.rank):
            col = alg.U[:, r]
            nz = col.nonzero()[0]
            if len(nz) > 1:
                np.copyto(S, blocksA[nz[0]])
                for i in nz[1:]:
                    parallel_axpy(pool, S, blocksA[i], 1.0)

    half = blocksA[0]
    with blas.blas_threads(1):
        t_mul_1 = median_time(lambda: half @ half, trials=3)
    with blas.blas_threads(LARGE_CORES):
        t_mul_p = median_time(lambda: half @ half, trials=3)
    t_add_1 = median_time(adds_serial, trials=3)
    t_add_p = median_time(adds_parallel, trials=3)

    bench_once(benchmark, adds_parallel)
    ratio_1 = t_add_1 / t_mul_1
    ratio_p = t_add_p / t_mul_p
    print("\n== addition/multiplication time ratio (one Strassen level) ==")
    print(f"serial:   adds {t_add_1:.4f}s / mul {t_mul_1:.4f}s = {ratio_1:.2f}")
    print(f"parallel: adds {t_add_p:.4f}s / mul {t_mul_p:.4f}s = {ratio_p:.2f}")
    verdict = "PASS" if ratio_p > 0.8 * ratio_1 else "MISS"
    print(f"paper-shape check: addition share does not improve in parallel: "
          f"{verdict}")
    assert t_add_1 > 0 and t_add_p > 0
