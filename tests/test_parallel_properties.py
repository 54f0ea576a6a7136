"""Hypothesis parallel-equivalence suite (the multicore tier's backbone).

Mirrors ``test_codegen_workspace.py``'s structure for the *parallel*
execution layer, pinning down the ISSUE 5 contract:

1. every parallel scheme -- ``dfs``, ``bfs``, ``hybrid`` and
   ``hybrid-subgroup`` across its P' divisors -- is *bit-for-bit* equal
   to the sequential interpreter path, across thread counts {2, 4},
   float32/float64 and non-divisible shapes: the schedules reorder *work*
   (tasks, barriers, leaf batches), never the per-element arithmetic
   sequence;
2. the arena-backed parallel path is bit-for-bit equal to the allocating
   parallel path, with zero overflow allocations (the Section 4.1/4.2
   footprints cover the P'-swept hybrid too);
3. a hybrid-subgroup *plan* dispatched through ``tuner.matmul`` at 4
   threads executes its tuned P' and returns the right product.

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
from repro.core.workspace import Workspace, bfs_footprint
from repro.parallel import blas
from repro.parallel.pool import WorkerPool
from repro.parallel.schedules import SCHEMES, multiply_parallel
from repro.tuner import Plan, PlanCache
from repro.tuner import matmul as tuner_matmul
from repro.tuner import reset_workspaces
from repro.tuner.space import subgroup_candidates

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


@st.composite
def parallel_configs(draw):
    """A valid (scheme, threads, subgroup) triple: P' is only drawn for
    the sub-group hybrid, and only from the divisors of the thread count
    (plus ``None`` for the execution-time default)."""
    scheme = draw(st.sampled_from(SCHEMES))
    threads = draw(st.sampled_from(THREADS))
    subgroup = None
    if scheme == "hybrid-subgroup":
        subgroup = draw(st.sampled_from(
            [None] + subgroup_candidates(threads)))
    return scheme, threads, subgroup


def _workspace(alg, scheme, steps, p, q, r, dtype_a, dtype_b):
    if scheme == "dfs":
        return Workspace.for_recursion([alg.base_case] * steps, p, q, r,
                                       dtype_a, dtype_b,
                                       algorithms=[alg] * steps)
    return Workspace(bfs_footprint(alg, steps, p, q, r, dtype_a, dtype_b))


# =========================================================================
# bit-for-bit: parallel (allocating and arena-backed) == interpreter
# =========================================================================
@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(ALGS),
    config=parallel_configs(),
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
def test_parallel_bit_for_bit_vs_interpreter(name, config, dtype, steps,
                                             dims, seed):
    scheme, threads, subgroup = config
    alg = get_algorithm(name)
    p, q, r = dims
    rng = np.random.default_rng(seed)
    A = rng.random((p, q)).astype(dtype)
    B = rng.random((q, r)).astype(dtype)
    with blas.blas_threads(1):
        ref = interpreter_multiply(A, B, alg, steps=steps)

    pool = _pool(threads)
    alloc = multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                              pool=pool, threads=threads, subgroup=subgroup)
    ws = _workspace(alg, scheme, steps, p, q, r, A.dtype, B.dtype)
    out = np.empty((p, r), dtype=np.result_type(A, B))
    got = multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                            pool=pool, threads=threads, subgroup=subgroup,
                            out=out, workspace=ws)

    assert got is out
    assert ws.overflow_allocations == 0
    # the scheduling layer moves work between threads, tasks and waves --
    # the per-element floating-point sequence must not move with it
    assert np.array_equal(alloc, ref), (scheme, threads, subgroup)
    assert np.array_equal(got, ref), (scheme, threads, subgroup)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(ALGS),
    threads=st.sampled_from(THREADS),
    subgroup_idx=st.integers(0, 3),
    dtype=st.sampled_from((np.float64, np.float32)),
    dims=st.tuples(st.integers(30, 70), st.integers(30, 70),
                   st.integers(30, 70)),
    seed=st.integers(0, 2**16),
)
def test_subgroup_choice_never_changes_bits(name, threads, subgroup_idx,
                                            dtype, dims, seed):
    """Every P' divisor partitions the same leaf products over the same
    arithmetic -- results across the whole P' sweep are bit-identical, so
    the tuner's choice is purely a *performance* decision."""
    alg = get_algorithm(name)
    p, q, r = dims
    rng = np.random.default_rng(seed)
    A = rng.random((p, q)).astype(dtype)
    B = rng.random((q, r)).astype(dtype)
    pool = _pool(threads)
    candidates = subgroup_candidates(threads)
    sub = candidates[subgroup_idx % len(candidates)]
    base = multiply_parallel(A, B, alg, steps=1, scheme="hybrid-subgroup",
                             pool=pool, threads=threads,
                             subgroup=candidates[0])
    got = multiply_parallel(A, B, alg, steps=1, scheme="hybrid-subgroup",
                            pool=pool, threads=threads, subgroup=sub)
    assert np.array_equal(base, got), (threads, sub)


# =========================================================================
# dispatch: tuned hybrid-subgroup plans execute their P'
# =========================================================================
class TestDispatchExecutesSubgroup:
    def test_planted_subgroup_plan_dispatches_correctly(self, tmp_path):
        n = 160
        cache = PlanCache(tmp_path / "plans.json")
        plan = Plan(algorithm="strassen", steps=1, scheme="hybrid-subgroup",
                    threads=4, subgroup=2)
        cache.put(n, n, n, "float64", 4, plan)
        rng = np.random.default_rng(7)
        A = rng.random((n, n))
        B = rng.random((n, n))
        reset_workspaces()
        C = tuner_matmul(A, B, threads=4, cache=cache)
        np.testing.assert_allclose(C, A @ B, atol=1e-9)
        reset_workspaces()

    def test_subgroup_is_threaded_through_execution(self, monkeypatch):
        """The plan's P' must reach multiply_parallel verbatim -- not be
        re-derived from the thread count (the pre-ISSUE-5 behaviour)."""
        from repro.tuner import dispatch

        seen = {}
        real = dispatch.multiply_parallel

        def spy(A, B, alg, **kw):
            seen["subgroup"] = kw.get("subgroup")
            return real(A, B, alg, **kw)

        monkeypatch.setattr(dispatch, "multiply_parallel", spy)
        plan = Plan(algorithm="strassen", steps=1, scheme="hybrid-subgroup",
                    threads=4, subgroup=1)
        rng = np.random.default_rng(8)
        A = rng.random((140, 140))
        B = rng.random((140, 140))
        C = dispatch.execute_plan(plan, A, B)
        assert seen["subgroup"] == 1
        np.testing.assert_allclose(C, A @ B, atol=1e-9)
