"""Hypothesis parallel-equivalence suite (the multicore tier's backbone).

Mirrors ``test_codegen_workspace.py``'s structure for the *parallel*
execution layer, pinning down the ISSUE 5 contract:

1. every parallel scheme -- ``dfs``, ``bfs`` and ``hybrid`` -- is
   *bit-for-bit* equal to the sequential interpreter path, across thread
   counts {2, 4},
   float32/float64 and non-divisible shapes: the schedules reorder *work*
   (tasks, barriers, leaf batches), never the per-element arithmetic
   sequence;
2. the arena-backed parallel path is bit-for-bit equal to the allocating
   parallel path, with zero overflow allocations (the Section 4.1/4.2
   footprints cover every scheme).

The BLAS thread count is pinned to 1 around the interpreter reference:
the parallel schemes run their leaves under ``blas_threads(1)`` (BFS
tasks) or explicit thread counts (DFS), and bit-for-bit claims must not
hinge on a vendor gemm's thread-count-dependent blocking.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.core.recursion import multiply as interpreter_multiply
from repro.core.workspace import Workspace
from repro.parallel import blas
from repro.parallel.pool import WorkerPool
from repro.parallel.schedules import (SCHEMES, multiply_parallel,
                                      parallel_footprint)

pytestmark = pytest.mark.multicore

ALGS = ("strassen", "winograd", "s234", "s333")
THREADS = (2, 4)

#: shared pools (one per thread count): hypothesis runs many examples and
#: thread-pool startup must not dominate the tier's wall clock
_pools: dict[int, WorkerPool] = {}


def _pool(threads: int) -> WorkerPool:
    if threads not in _pools:
        _pools[threads] = WorkerPool(threads)
    return _pools[threads]


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    while _pools:
        _pools.popitem()[1].shutdown()


def _workspace(alg, scheme, steps, p, q, r, dtype_a, dtype_b, threads):
    if scheme == "dfs":
        return Workspace.for_recursion([alg.base_case] * steps, p, q, r,
                                       dtype_a, dtype_b,
                                       algorithms=[alg] * steps)
    return Workspace(parallel_footprint(alg, steps, scheme, p, q, r,
                                        dtype_a, dtype_b, threads=threads))


# =========================================================================
# bit-for-bit: parallel (allocating and arena-backed) == interpreter
# =========================================================================
@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(ALGS),
    scheme=st.sampled_from(SCHEMES),
    threads=st.sampled_from(THREADS),
    dtype=st.sampled_from((np.float64, np.float32)),
    steps=st.integers(1, 2),
    # >= 33 keeps two levels of every base case (<= 4 per dim) above the
    # interpreter's min_dim=2 cutoff: below it, the parallel DFS descends
    # onto slivers the interpreter (and the arena footprint, which mirrors
    # its skip semantics) legitimately handles differently -- the ranges
    # still cover non-divisible shapes at every level
    dims=st.tuples(st.integers(33, 80), st.integers(33, 80),
                   st.integers(33, 80)),
    seed=st.integers(0, 2**16),
)
def test_parallel_bit_for_bit_vs_interpreter(name, scheme, threads, dtype,
                                             steps, dims, seed):
    alg = get_algorithm(name)
    p, q, r = dims
    rng = np.random.default_rng(seed)
    A = rng.random((p, q)).astype(dtype)
    B = rng.random((q, r)).astype(dtype)
    with blas.blas_threads(1):
        ref = interpreter_multiply(A, B, alg, steps=steps)

    pool = _pool(threads)
    alloc = multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                              pool=pool, threads=threads)
    ws = _workspace(alg, scheme, steps, p, q, r, A.dtype, B.dtype, threads)
    out = np.empty((p, r), dtype=np.result_type(A, B))
    got = multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                            pool=pool, threads=threads, out=out,
                            workspace=ws)

    assert got is out
    assert ws.overflow_allocations == 0
    # the scheduling layer moves work between threads, tasks and waves --
    # the per-element floating-point sequence must not move with it
    assert np.array_equal(alloc, ref), (scheme, threads)
    assert np.array_equal(got, ref), (scheme, threads)

