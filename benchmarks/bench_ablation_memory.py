"""Ablation (Section 4.2): memory footprint of the parallel schemes.

The paper's claim, measured with tracemalloc: BFS needs ~R/(MN) times the
output memory per recursion level for the M_r intermediates.
"""

import tracemalloc

from conftest import bench_once

from repro.algorithms import get_algorithm
from repro.bench.workloads import scaled, square
from repro.core.cost import bfs_memory_factor
from repro.parallel import WorkerPool, multiply_parallel


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_scheme_memory(benchmark):
    alg = get_algorithm("strassen")
    n = scaled(512)
    A, B = square(n).matrices()
    with WorkerPool(2) as pool:
        peak_dfs = _peak_bytes(
            lambda: multiply_parallel(A, B, alg, steps=1, scheme="dfs",
                                      pool=pool))
        peak_bfs = _peak_bytes(
            lambda: multiply_parallel(A, B, alg, steps=1, scheme="bfs",
                                      pool=pool))
        bench_once(benchmark, lambda: multiply_parallel(
            A, B, alg, steps=1, scheme="bfs", pool=pool))

    print(f"\n== Memory: parallel schemes, Strassen 1 step, N={n} ==")
    print(f"dfs peak {peak_dfs / 2**20:.1f} MiB, bfs peak "
          f"{peak_bfs / 2**20:.1f} MiB "
          f"(model: BFS holds ~R/(MN) = {bfs_memory_factor(alg):.2f}x C "
          f"in M_r intermediates)")
    verdict = "PASS" if peak_bfs > peak_dfs else "MISS"
    print(f"paper-shape check: BFS needs more memory than DFS: {verdict}")
    assert peak_bfs > 0
