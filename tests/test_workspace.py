"""Tests for repro.core.workspace: arenas, footprints, out=, zero-alloc.

Four claims are pinned down here:

1. the arena mechanics are sound (alignment, stack discipline, graceful
   overflow);
2. the Section 4.1/4.2 footprint formulas really cover the executors'
   demand (zero overflow allocations across schemes, shapes and dtypes);
3. ``out=`` is validated (aliasing/shape/dtype must raise) and honored by
   every execution layer;
4. the arena-backed paths are *bit-for-bit* equal to the allocating paths
   (same ufunc/gemm sequence on the same values), and a warm dispatch call
   performs no allocation larger than 1 MiB (the tracking-allocator
   regression for the steady state).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.core.recursion import combine_blocks, multiply, multiply_schedule
from repro.core.workspace import (
    ALIGNMENT,
    Workspace,
    bfs_footprint,
    bfs_level_shapes,
    check_out,
    dfs_footprint,
    dfs_level_shapes,
    needs_scratch,
    scratch_view,
    track_allocations,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.schedules import multiply_parallel
from repro.tuner import Plan, PlanCache
from repro.tuner import matmul as tuner_matmul
from repro.tuner import reset_workspaces
from repro.util.matrices import random_matrix

LARGE = 1 << 20  # the "large allocation" threshold of the steady-state claim


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as p:
        yield p


# =========================================================================
# arena mechanics
# =========================================================================
class TestArena:
    def test_take_aligned_contiguous(self):
        ws = Workspace(1 << 16)
        for shape, dtype in [((7, 5), np.float64), ((3, 11), np.float32),
                             ((16, 16), np.float64)]:
            buf = ws.take(shape, dtype)
            assert buf.shape == shape and buf.dtype == dtype
            assert buf.flags.c_contiguous
            assert buf.ctypes.data % ALIGNMENT == 0
        assert ws.overflow_allocations == 0

    def test_takes_are_disjoint(self):
        ws = Workspace(1 << 16)
        a = ws.take((8, 8), np.float64)
        b = ws.take((8, 8), np.float64)
        a[:] = 1.0
        b[:] = 2.0
        assert not np.may_share_memory(a, b)
        np.testing.assert_array_equal(a, np.ones((8, 8)))

    def test_reset_reuses_memory(self):
        ws = Workspace(1 << 16)
        a = ws.take((8, 8), np.float64)
        ptr = a.ctypes.data
        ws.reset()
        b = ws.take((8, 8), np.float64)
        assert b.ctypes.data == ptr  # same bytes handed out again

    def test_mark_release_stack_discipline(self):
        ws = Workspace(1 << 16)
        ws.take((4, 4), np.float64)
        mark = ws.mark()
        inner = ws.take((4, 4), np.float64)
        ws.release(mark)
        again = ws.take((4, 4), np.float64)
        assert again.ctypes.data == inner.ctypes.data

    def test_overflow_falls_back_to_heap(self):
        ws = Workspace(256)
        big = ws.take((64, 64), np.float64)  # 32 KiB >> capacity
        assert big.shape == (64, 64)
        assert ws.overflow_allocations == 1
        big[:] = 1.0  # usable memory, not a view of the arena

    def test_high_water_tracks_peak(self):
        ws = Workspace(1 << 16)
        ws.take((16, 16), np.float64)
        hw = ws.high_water
        assert hw >= 16 * 16 * 8
        ws.reset()
        ws.take((2, 2), np.float64)
        assert ws.high_water == hw  # peak is sticky across resets

    def test_scratch_view_reinterprets(self):
        ws = Workspace(1 << 12)
        raw = ws.take_scratch(512)
        v = scratch_view(raw, (8, 8), np.float64)
        assert v.shape == (8, 8) and v.dtype == np.float64
        v[:] = 3.0
        np.testing.assert_array_equal(
            scratch_view(raw, (8, 8), np.float64), np.full((8, 8), 3.0)
        )

    def test_needs_scratch(self):
        assert not needs_scratch(np.array([0.0, 1.0, -1.0]))
        assert needs_scratch(np.array([1.0, 0.5]))


# =========================================================================
# footprint formulas (Sections 4.1 / 4.2)
# =========================================================================
class TestFootprints:
    def test_dfs_level_shapes_peel(self):
        # <2,2,2> on 130x129x131: core 130/129/130 -> 65x64x65, then 64x64x64 core -> 32x32x32
        shapes = dfs_level_shapes([(2, 2, 2), (2, 2, 2)], 130, 129, 131)
        assert shapes == [(65, 64, 65), (32, 32, 32)]

    def test_dfs_level_shapes_skips_too_small_levels(self):
        # below CutoffPolicy's min_dim the executor refuses the split
        assert dfs_level_shapes([(3, 3, 3)] * 4, 5, 5, 5) == []
        # a composed schedule skips an oversized level but keeps recursing
        # below it on the *unchanged* dims -- the footprint must cover that
        assert dfs_level_shapes([(6, 6, 6), (2, 2, 2)], 10, 10, 10) == [
            (5, 5, 5)
        ]

    def test_bfs_level_shapes_counts(self):
        alg = get_algorithm("strassen")
        levels = bfs_level_shapes(alg.base_case, alg.rank, 2, 64, 64, 64)
        assert levels == [(7, (32, 32, 32)), (49, (16, 16, 16))]

    @pytest.mark.parametrize("name,steps,shape", [
        ("strassen", 2, (96, 96, 96)),
        ("strassen", 2, (97, 99, 101)),
        ("s234", 1, (64, 81, 48)),
        ("s333", 2, (90, 90, 90)),
    ])
    def test_dfs_footprint_covers_recursion(self, name, steps, shape):
        alg = get_algorithm(name)
        p, q, r = shape
        A = random_matrix(p, q, 0)
        B = random_matrix(q, r, 1)
        ws = Workspace.for_recursion([alg.base_case] * steps, p, q, r,
                                     A.dtype, B.dtype)
        out = np.empty((p, r))
        multiply(A, B, alg, steps=steps, out=out, workspace=ws)
        assert ws.overflow_allocations == 0
        assert ws.high_water <= ws.nbytes

    @pytest.mark.parametrize("name,steps,shape", [
        ("strassen", 2, (64, 64, 64)),
        ("strassen", 1, (65, 67, 63)),
        ("s234", 1, (48, 54, 40)),
        ("s333", 2, (54, 54, 54)),
    ])
    def test_bfs_footprint_covers_tree(self, name, steps, shape, pool):
        alg = get_algorithm(name)
        p, q, r = shape
        A = random_matrix(p, q, 2)
        B = random_matrix(q, r, 3)
        ws = Workspace(bfs_footprint(alg, steps, p, q, r, A.dtype, B.dtype))
        out = np.empty((p, r))
        for scheme in ("bfs", "hybrid"):
            multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                              pool=pool, threads=2, out=out, workspace=ws)
            assert ws.overflow_allocations == 0, scheme
        assert ws.high_water <= ws.nbytes

    def test_footprints_are_modest(self):
        # DFS stays near the Section 4.1 bound: ~3 block-triples per level,
        # far below one extra full copy of the output per level
        alg = get_algorithm("strassen")
        n = 1024
        fp = dfs_footprint([alg.base_case] * 2, n, n, n)
        assert fp < 2 * n * n * 8
        # BFS pays the R/(MN) per-level factor and must exceed DFS
        assert bfs_footprint(alg, 2, n, n, n) > fp

    def test_schedule_with_skipped_level_fits(self):
        # first level too big to split at these dims: multiply_schedule
        # skips it and runs the next algorithm on the unchanged subproblem,
        # and the footprint simulation must size for that (not undersize)
        sched = [get_algorithm("s336"), get_algorithm("strassen")]
        A = random_matrix(8, 8, 20)
        B = random_matrix(8, 8, 21)
        ws = Workspace.for_recursion([a.base_case for a in sched], 8, 8, 8,
                                     A.dtype, B.dtype)
        out = np.empty((8, 8))
        multiply_schedule(A, B, sched, out=out, workspace=ws)
        assert ws.overflow_allocations == 0
        np.testing.assert_allclose(out, A @ B, atol=1e-10)

    def test_tiny_arena_still_correct(self):
        # a deliberately undersized arena degrades to heap fallback,
        # never to a wrong product
        alg = get_algorithm("strassen")
        A = random_matrix(64, 64, 4)
        B = random_matrix(64, 64, 5)
        ws = Workspace(64)
        out = np.empty((64, 64))
        multiply(A, B, alg, steps=2, out=out, workspace=ws)
        assert ws.overflow_allocations > 0
        np.testing.assert_allclose(out, A @ B, atol=1e-9)


# =========================================================================
# out= contract
# =========================================================================
class TestOutParameter:
    def test_out_returned_and_correct(self):
        alg = get_algorithm("strassen")
        A = random_matrix(40, 40, 0)
        B = random_matrix(40, 40, 1)
        out = np.empty((40, 40))
        got = multiply(A, B, alg, steps=1, out=out)
        assert got is out
        np.testing.assert_allclose(out, A @ B, atol=1e-10)

    def test_out_schedule(self):
        sched = [get_algorithm("strassen"), get_algorithm("s234")]
        A = random_matrix(60, 66, 2)
        B = random_matrix(66, 56, 3)
        out = np.empty((60, 56))
        got = multiply_schedule(A, B, sched, out=out)
        assert got is out
        np.testing.assert_allclose(out, A @ B, atol=1e-9)

    @pytest.mark.parametrize("scheme", ["dfs", "bfs", "hybrid"])
    def test_out_parallel(self, scheme, pool):
        alg = get_algorithm("strassen")
        A = random_matrix(48, 48, 4)
        B = random_matrix(48, 48, 5)
        out = np.empty((48, 48))
        got = multiply_parallel(A, B, alg, steps=1, scheme=scheme,
                                pool=pool, threads=2, out=out)
        assert got is out
        np.testing.assert_allclose(out, A @ B, atol=1e-10)

    def test_out_aliasing_raises(self):
        A = random_matrix(32, 32, 6)
        B = random_matrix(32, 32, 7)
        with pytest.raises(ValueError, match="overlap"):
            check_out(A, A, B)
        with pytest.raises(ValueError, match="overlap"):
            check_out(B, A, B)
        # any view over the operands' memory is aliasing too
        with pytest.raises(ValueError, match="overlap"):
            check_out(A[:, :], A, B)

    def test_out_shape_dtype_writeable_raise(self):
        A = random_matrix(32, 24, 8)
        B = random_matrix(24, 40, 9)
        with pytest.raises(ValueError, match="shape"):
            check_out(np.empty((32, 39)), A, B)
        with pytest.raises(ValueError, match="dtype"):
            check_out(np.empty((32, 40), dtype=np.float32), A, B)
        ro = np.empty((32, 40))
        ro.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            check_out(ro, A, B)
        with pytest.raises(ValueError, match="2-D"):
            check_out(np.empty(32 * 40), A, B)

    def test_multiply_rejects_aliased_out(self):
        alg = get_algorithm("strassen")
        A = random_matrix(32, 32, 10)
        B = random_matrix(32, 32, 11)
        with pytest.raises(ValueError, match="overlap"):
            multiply(A, B, alg, steps=1, out=A)
        with pytest.raises(ValueError, match="overlap"):
            multiply_parallel(A, B, alg, steps=1, scheme="dfs",
                              threads=1, out=B)

    def test_matmul_out(self, tmp_path):
        A = random_matrix(160, 160, 12)
        B = random_matrix(160, 160, 13)
        cache = PlanCache(tmp_path / "plans.json")
        out = np.empty((160, 160))
        got = tuner_matmul(A, B, threads=1, cache=cache, out=out)
        assert got is out
        np.testing.assert_allclose(out, A @ B, atol=1e-10)
        with pytest.raises(ValueError, match="overlap"):
            tuner_matmul(A, B, threads=1, cache=cache, out=A)

    def test_workspace_result_does_not_alias_arena(self):
        # without out=, results must be freshly owned -- a second call may
        # not clobber the first call's return value
        alg = get_algorithm("strassen")
        A = random_matrix(48, 48, 14)
        B = random_matrix(48, 48, 15)
        ws = Workspace.for_recursion([alg.base_case], 48, 48, 48,
                                     A.dtype, B.dtype)
        r1 = multiply(A, B, alg, steps=1, workspace=ws)
        snapshot = r1.copy()
        multiply(B, A, alg, steps=1, workspace=ws)
        np.testing.assert_array_equal(r1, snapshot)


# =========================================================================
# combine_blocks fused path
# =========================================================================
class TestCombineBlocksOut:
    def test_matches_allocating_path_bitwise(self):
        rng = np.random.default_rng(0)
        blocks = [rng.random((9, 7)) for _ in range(4)]
        for coeffs in ([1.0, -1.0, 0.5, 2.0], [0.0, 1.0, 0.0, -1.0],
                       [2.5, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]):
            coeffs = np.array(coeffs)
            ref = combine_blocks(blocks, coeffs)
            out = np.empty((9, 7))
            scratch = np.empty(9 * 7 * 8, dtype=np.uint8)
            got = combine_blocks(blocks, coeffs, out=out, scratch=scratch)
            assert np.array_equal(ref, got)

    def test_single_unit_block_stays_a_view(self):
        blocks = [np.ones((4, 4)), np.zeros((4, 4))]
        out = np.empty((4, 4))
        got = combine_blocks(blocks, np.array([1.0, 0.0]), out=out)
        assert got is blocks[0]  # the Section 3.1 no-copy special case

    def test_all_zero_returns_none(self):
        out = np.empty((4, 4))
        assert combine_blocks([np.ones((4, 4))], np.zeros(1), out=out) is None


# =========================================================================
# bit-for-bit equivalence of arena-backed and allocating paths
# =========================================================================
ALGS = ("strassen", "winograd", "s234", "s333")
DTYPES = (np.float64, np.float32)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(ALGS),
    dtype=st.sampled_from(DTYPES),
    steps=st.integers(1, 2),
    dims=st.tuples(st.integers(24, 72), st.integers(24, 72),
                   st.integers(24, 72)),
    seed=st.integers(0, 2**16),
)
def test_sequential_arena_bit_for_bit(name, dtype, steps, dims, seed):
    alg = get_algorithm(name)
    p, q, r = dims
    rng = np.random.default_rng(seed)
    A = rng.random((p, q)).astype(dtype)
    B = rng.random((q, r)).astype(dtype)
    ref = multiply(A, B, alg, steps=steps)
    ws = Workspace.for_recursion([alg.base_case] * steps, p, q, r,
                                 A.dtype, B.dtype)
    out = np.empty((p, r), dtype=np.result_type(A, B))
    got = multiply(A, B, alg, steps=steps, out=out, workspace=ws)
    assert ws.overflow_allocations == 0
    assert np.array_equal(ref, got)


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(ALGS),
    dtype=st.sampled_from(DTYPES),
    scheme=st.sampled_from(("dfs", "bfs", "hybrid")),
    n=st.integers(24, 64),
    seed=st.integers(0, 2**16),
)
def test_parallel_arena_bit_for_bit(name, dtype, scheme, n, seed):
    alg = get_algorithm(name)
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)).astype(dtype)
    B = rng.random((n, n)).astype(dtype)
    with WorkerPool(2) as pool:
        ref = multiply_parallel(A, B, alg, steps=1, scheme=scheme,
                                pool=pool, threads=2)
        if scheme == "dfs":
            ws = Workspace.for_recursion([alg.base_case], n, n, n,
                                         A.dtype, B.dtype)
        else:
            ws = Workspace(bfs_footprint(alg, 1, n, n, n, A.dtype, B.dtype))
        out = np.empty((n, n), dtype=np.result_type(A, B))
        got = multiply_parallel(A, B, alg, steps=1, scheme=scheme,
                                pool=pool, threads=2, out=out, workspace=ws)
    assert ws.overflow_allocations == 0
    assert np.array_equal(ref, got)


# =========================================================================
# steady-state allocation regression (the tracking-allocator tests)
# =========================================================================
class TestSteadyStateAllocations:
    @pytest.mark.parametrize("scheme", ["sequential", "dfs", "hybrid"])
    @pytest.mark.parametrize("n", [512, 515])
    def test_warm_dispatch_is_allocation_free(self, scheme, n, tmp_path):
        """After the first call for a cached shape, ``matmul(A, B, out=C)``
        performs zero allocations larger than 1 MiB (ISSUE 3 acceptance).

        ``n=515`` is deliberately non-divisible: dynamic peeling's
        core-size inner-dimension fix-up must come from the arena too.
        """
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(n, n, n, "float64", 2,
                  Plan(algorithm="strassen", steps=2, scheme=scheme,
                       threads=2))
        A = random_matrix(n, n, 0)
        B = random_matrix(n, n, 1)
        out = np.empty((n, n))
        reset_workspaces()
        tuner_matmul(A, B, threads=2, cache=cache, out=out)  # builds arena
        with track_allocations() as rep:
            tuner_matmul(A, B, threads=2, cache=cache, out=out)
        assert rep.peak_bytes is not None and rep.peak_bytes < LARGE, scheme
        np.testing.assert_allclose(out, A @ B, atol=1e-8)

    def test_warm_sequential_numpy_plan_is_allocation_free(self, tmp_path):
        """Sequential NumPy plans are served by the interpreter in its
        Section 4.1 arena: warm dispatch must write ``out`` directly."""
        n = 515  # non-divisible: the peel strip chunk must be arena-backed
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(n, n, n, "float64", 1,
                  Plan(algorithm="strassen", steps=2, scheme="sequential",
                       threads=1))
        A = random_matrix(n, n, 40)
        B = random_matrix(n, n, 41)
        out = np.empty((n, n))
        reset_workspaces()
        got = tuner_matmul(A, B, threads=1, cache=cache, out=out)
        assert got is out
        with track_allocations() as rep:
            got = tuner_matmul(A, B, threads=1, cache=cache, out=out)
        assert got is out
        assert rep.peak_bytes is not None and rep.peak_bytes < LARGE
        np.testing.assert_allclose(out, A @ B, atol=1e-8)
        reset_workspaces()

    def test_allocating_path_trips_the_probe(self):
        """Sanity for the tracking allocator itself: the pre-arena path
        allocates well past the threshold, so the probe can tell them
        apart (a regression in the probe would otherwise pass silently)."""
        n = 512
        alg = get_algorithm("strassen")
        A = random_matrix(n, n, 2)
        B = random_matrix(n, n, 3)
        multiply(A, B, alg, steps=2)  # warm numpy internals
        with track_allocations() as rep:
            multiply(A, B, alg, steps=2)
        assert rep.peak_bytes > LARGE

    def test_warm_recursion_call_is_allocation_free(self):
        n = 512
        alg = get_algorithm("strassen")
        A = random_matrix(n, n, 4)
        B = random_matrix(n, n, 5)
        ws = Workspace.for_recursion([alg.base_case] * 2, n, n, n,
                                     A.dtype, B.dtype)
        out = np.empty((n, n))
        multiply(A, B, alg, steps=2, out=out, workspace=ws)
        with track_allocations() as rep:
            multiply(A, B, alg, steps=2, out=out, workspace=ws)
        assert rep.peak_bytes < LARGE
        assert ws.overflow_allocations == 0

    def test_workspace_cache_is_bounded(self, tmp_path):
        from repro.tuner.dispatch import WORKSPACE_CACHE_SIZE, _workspaces
        from repro.tuner.dispatch import workspace_for

        reset_workspaces()
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        for i in range(WORKSPACE_CACHE_SIZE + 4):
            workspace_for(plan, 128 + 2 * i, 128, 128, "float64", "float64")
        assert len(_workspaces) == WORKSPACE_CACHE_SIZE
        reset_workspaces()

    def test_workspace_for_dgemm_is_none(self):
        from repro.tuner.dispatch import workspace_for

        assert workspace_for(Plan(threads=1), 64, 64, 64,
                             "float64", "float64") is None

    def test_concurrent_matmul_same_shape_is_correct(self, tmp_path):
        """Arenas are keyed per thread: two dispatchers hammering the same
        cached shape must not corrupt each other's temporaries."""
        from concurrent.futures import ThreadPoolExecutor

        n = 192
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(n, n, n, "float64", 1,
                  Plan(algorithm="strassen", steps=2, scheme="sequential",
                       threads=1))
        A = random_matrix(n, n, 30)
        B = random_matrix(n, n, 31)
        expected = A @ B
        reset_workspaces()

        def hammer(_):
            for _ in range(5):
                C = tuner_matmul(A, B, threads=1, cache=cache)
                if not np.allclose(C, expected, atol=1e-9):
                    return False
            return True

        with ThreadPoolExecutor(4) as ex:
            results = list(ex.map(hammer, range(4)))
        assert all(results)
        reset_workspaces()
