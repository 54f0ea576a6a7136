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
   regression for the steady state) -- whatever else the thread has
   served in its one arena (shared with no other thread, gone when the
   thread is) and on the paths an executor picks from the operands.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.algorithms import get_algorithm
from repro.codegen import cbackend
from repro.core.recursion import combine_blocks, multiply, multiply_schedule
from repro.core.stability import error_bound
from repro.core.workspace import (
    ALIGNMENT,
    Workspace,
    axpy,
    check_out,
    dfs_footprint,
    dfs_level_shapes,
    needs_scratch,
    scratch_view,
    track_allocations,
)
from repro.guard import faults
from repro.parallel.pool import WorkerPool
from repro.parallel.schedules import multiply_parallel, parallel_footprint
from repro.tuner import Plan, PlanCache, dispatch
from repro.tuner import matmul as tuner_matmul
from repro.tuner import reset_workspaces
from repro.util.matrices import random_matrix

LARGE = 1 << 20  # the "large allocation" threshold of the steady-state claim
STRASSEN1 = Plan(algorithm="strassen", steps=1, threads=1)


@pytest.fixture(autouse=True)
def clean_dispatch_state():
    """Telemetry, faults and the threads' arenas are process-wide."""
    yield
    obs.disable()
    obs.reset()
    faults.reset_fired()
    reset_workspaces()


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
        ws.reserve(1 << 16)
        assert ws.high_water == 0   # ... and starts over with a reservation

    def test_reserve_grows_exactly_and_never_shrinks(self):
        ws = Workspace(1 << 12)
        with track_allocations() as rep:
            ws.reserve(LARGE)
        assert LARGE <= rep.peak_bytes < LARGE + (1 << 12)  # no growth factor
        ws.uses = 3
        ws.reserve(1 << 12)
        # the reservation is the overflow limit, whatever the buffer holds
        ws.take((1 << 13,), np.uint8)
        assert (ws.nbytes, ws.overflow_allocations) == (1 << 12, 1)
        with track_allocations() as rep:
            ws.reserve(LARGE)
            ws.take((LARGE - ALIGNMENT,), np.uint8)
        assert rep.peak_bytes < 1 << 12 and ws.uses == 3    # the same buffer
        assert (ws.nbytes, ws.overflow_allocations) == (LARGE, 1)
        ws.reserve(2 * LARGE)
        assert ws.uses == 0                                 # a new one

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

    @pytest.mark.parametrize("name,steps,shape", [
        ("strassen", 2, (64, 64, 64)),
        ("strassen", 1, (65, 67, 63)),
        ("s234", 1, (48, 54, 40)),
        ("s333", 2, (54, 54, 54)),
    ])
    def test_parallel_footprint_covers_tree(self, name, steps, shape, pool):
        alg = get_algorithm(name)
        p, q, r = shape
        A = random_matrix(p, q, 2)
        B = random_matrix(q, r, 3)
        nbytes = parallel_footprint(alg, steps, "bfs", p, q, r, A.dtype,
                                    B.dtype, threads=2)
        ws = Workspace(nbytes)
        out = np.empty((p, r))
        for scheme in ("bfs", "hybrid"):
            multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                              pool=pool, threads=2, out=out, workspace=ws)
            assert ws.overflow_allocations == 0, scheme
            assert ws.nbytes == nbytes and ws.high_water <= nbytes

    def test_footprints_are_modest(self):
        # DFS stays near the Section 4.1 bound: ~3 block-triples per level,
        # far below one extra full copy of the output per level
        alg = get_algorithm("strassen")
        n = 1024
        fp = dfs_footprint([alg.base_case] * 2, n, n, n)
        assert fp < 2 * n * n * 8
        # a level the tree forms itself holds every product its C cannot
        # hold, where DFS holds none: BFS must exceed DFS
        assert parallel_footprint(alg, 2, "bfs", n, n, n, fused=True,
                                  threads=2) > parallel_footprint(
            alg, 2, "dfs", n, n, n, fused=True, threads=2)

    @pytest.mark.skipif(not cbackend.chains_fused("float64", None, "bfs"),
                        reason="no C compiler or no vendor cblas")
    @pytest.mark.parametrize("plan,shape,nbytes,high_water", [
        (STRASSEN1, (2048, 2048, 2048), 83886272, 83886144),
        (STRASSEN1, (2999, 801, 2999), 101896320, 101896128),
        *((Plan(algorithm="strassen", steps=steps, scheme=scheme,
                threads=2), (2048, 2048, 2048), *arena)
          for steps, arena in ((1, (109052160, 109051904)),
                               (2, (178258624, 178258048)))
          for scheme in ("bfs", "hybrid")),
    ], ids=lambda v: v.describe() if isinstance(v, Plan) else None)
    def test_pinned_plans_carve_their_pinned_arena(self, plan, shape, nbytes,
                                                   high_water):
        """The memory regression table: the benchmark's pinned float64
        plans reserve exactly these bytes and a call carves exactly these
        of them, with no overflow -- the footprint and the executor it
        mirrors cannot drift apart unnoticed.  Every product lives in the
        C block that reads it last where it can: the sequential step's
        carve holds no product row at 2048^3 (80 MiB, 88 when each took a
        slab row) and three at 2999x801x2999 (97 MiB, 166 with seven); the
        tree's levels 104 MiB (136) and 170 MiB (214)."""
        p, q, r = shape
        A, B = random_matrix(p, q, 1), random_matrix(q, r, 2)
        ws = dispatch.workspace_for(plan, p, q, r, A.dtype, B.dtype)
        dispatch.execute_plan(plan, A, B, out=np.empty((p, r)),
                              workspace=ws)
        assert (ws.nbytes, ws.high_water, ws.overflow_allocations) == (
            nbytes, high_water, 0)

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
class TestAxpy:
    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.5, -2.5])
    def test_matches_reference(self, alpha):
        out = random_matrix(10, 8, 0)
        x = random_matrix(10, 8, 1)
        expected = out + alpha * x
        axpy(out, x, alpha)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, -2.5, 3.0])
    def test_scratch_branch_is_bitwise_equal_and_allocation_free(self, alpha):
        ref = random_matrix(256, 256, 2)
        x = random_matrix(256, 256, 3)
        out = ref.copy()
        axpy(ref, x, alpha)  # allocating general branch
        scratch = np.empty(out.nbytes, dtype=np.uint8)
        with track_allocations() as rep:
            axpy(out, x, alpha, scratch)
        np.testing.assert_array_equal(out, ref)
        assert rep.peak_bytes < out.nbytes // 2  # no matrix-sized temporary

    def test_numpy_scalar_alpha_does_not_upcast_float32(self):
        # NEP 50: a float64 numpy scalar would silently upcast the product
        out = np.ones((4, 4), dtype=np.float32)
        x = np.ones((4, 4), dtype=np.float32)
        scratch = np.empty(out.nbytes, dtype=np.uint8)
        axpy(out, x, np.float64(0.5), scratch)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, 1.5)


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


@settings(max_examples=25)
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


@settings(max_examples=15)
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
        ws = Workspace(parallel_footprint(alg, 1, scheme, n, n, n, A.dtype,
                                          B.dtype, threads=2))
        out = np.empty((n, n), dtype=np.result_type(A, B))
        got = multiply_parallel(A, B, alg, steps=1, scheme=scheme,
                                pool=pool, threads=2, out=out, workspace=ws)
    assert ws.overflow_allocations == 0
    assert np.array_equal(ref, got)


#: what an executor learns (all but the first) only after its caller sized
#: the arena: strides its kernels cannot walk, a compile that fails
LAYOUTS = {
    "contiguous": lambda A, B, out: (A, B, out),
    "fortran-A": lambda A, B, out: (np.asfortranarray(A), B, out),
    "strided-cols-B": lambda A, B, out: (
        A, np.repeat(B, 2, axis=1)[:, ::2], out),
    "fortran-out": lambda A, B, out: (A, B, np.empty(out.shape[::-1]).T),
    "compilefail": lambda A, B, out: (A, B, out),
}
PLANS = [Plan(algorithm="strassen", steps=2, scheme=scheme, threads=2)
         for scheme in ("sequential", "dfs", "hybrid")] + [
    Plan(algorithm="strassen", steps=1, scheme="bfs", threads=2),
    Plan(algorithm="strassen", steps=1, threads=1)]


# =========================================================================
# steady-state allocation regression (the tracking-allocator tests)
# =========================================================================
class TestSteadyStateAllocations:
    @pytest.mark.parametrize(
        "plan,n,layout",
        [(plan, 512, "contiguous") for plan in PLANS]
        + [(plan, 515, layout) for plan in PLANS for layout in LAYOUTS],
        ids=lambda v: v.describe() if isinstance(v, Plan) else str(v))
    def test_warm_dispatch_is_allocation_free(self, plan, n, layout, tmp_path,
                                              fresh_cache_state):
        """After the first call for a cached shape, ``matmul(A, B, out=C)``
        performs zero allocations larger than 1 MiB (ISSUE 3 acceptance)
        and spills nothing -- also where the executor runs a path its
        caller could not size for (packing a strided matrix for the C
        driver, the NumPy adders standing in for kernels, the interpreter
        after a failed compile): each used to spill out of, or run beside,
        an arena laid out for another path; now it reserves its own, once.
        ``n=515`` is deliberately non-divisible: dynamic peeling's
        core-size inner-dimension fix-up must come from the arena too.
        """
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(n, n, n, "float64", plan.threads, plan)
        A, B, out = LAYOUTS[layout](random_matrix(n, n, 0),
                                    random_matrix(n, n, 1),
                                    np.empty((n, n)))
        # a compile is attempted wherever the compiled kernels would run
        failing = layout == "compilefail" and cbackend.available()
        obs.enable()
        with faults.inject(*["cbackend.compilefail"] * failing):
            for call in range(3):
                with track_allocations() as rep:
                    got = tuner_matmul(A, B, threads=plan.threads,
                                       cache=cache, out=out)
                assert got is out  # written directly
                assert call == 0 or rep.peak_bytes < LARGE, call
                rec = obs.dispatch_records()[-1]
                assert 0 == rec["arena_overflows"] < rec[
                    "arena_high_water"] <= rec["arena_bytes"]
        assert obs.counter_value("workspace.overflows") == 0
        assert obs.counter_value("cbackend.fallbacks") == 3 * failing
        np.testing.assert_allclose(out, A @ B, atol=1e-8)

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

    def test_ten_plans_round_robin_in_one_arena(self, tmp_path):
        """Ten (plan, shape) pairs on one thread -- more than the per-plan
        arena cache this replaced had slots, where every call then rebuilt
        one: a single arena grows to the largest footprint during the
        first sweep and every later call finds it warm."""
        pairs = [(PLANS[i % len(PLANS)], 640 + 8 * i) for i in range(10)]
        cache = PlanCache(tmp_path / "plans.json")
        for plan, n in pairs:
            cache.put(n, n, n, "float64", plan.threads, plan)
        A, B = random_matrix(720, 720, 50), random_matrix(720, 720, 51)
        out = np.empty((720, 720))
        footprint = {n: dispatch.plan_footprint(plan, n, n, n, A.dtype,
                                                B.dtype) for plan, n in pairs}
        assert min(footprint.values()) > LARGE  # rebuilding one would show
        obs.enable()
        for sweep in range(3):
            grown = obs.counter_value("workspace.grows")
            for plan, n in pairs:
                with track_allocations() as rep:
                    tuner_matmul(A[:n, :n], B[:n, :n], cache=cache,
                                 threads=plan.threads, out=out[:n, :n])
                assert sweep == 0 or rep.peak_bytes < LARGE, (sweep, n)
                rec = obs.dispatch_records()[-1]
                assert (rec["plan"], rec["arena_bytes"]) == (
                    plan.describe(), footprint[n])
            assert sweep == 0 or obs.counter_value("workspace.grows") == grown
        np.testing.assert_allclose(out[:n, :n], A[:n, :n] @ B[:n, :n],
                                   atol=1e-8)
        assert obs.counter_value("workspace.overflows") == 0
        # one arena, whichever plan asks, and the largest footprint still fits
        with track_allocations() as rep:
            arenas = [dispatch.workspace_for(plan, n, n, n, A.dtype, B.dtype)
                      for plan, n in sorted(pairs, key=lambda pn:
                                            footprint[pn[1]])]
        assert len(set(map(id, arenas))) == 1 and rep.peak_bytes < LARGE
        assert arenas[0].uses > 3 * len(pairs)

    def test_workspace_for_dgemm_is_none(self):
        assert dispatch.workspace_for(Plan(threads=1), 64, 64, 64,
                                      "float64", "float64") is None

    @pytest.mark.parametrize("armed", [(), ("plan.raise:5",
                                            "cbackend.compilefail")],
                             ids=["faults-off", "faults-on"])
    def test_concurrent_dispatchers_share_no_arena(self, armed, tmp_path,
                                                   fresh_cache_state):
        """One arena per thread: four dispatchers hammering a mix of plans
        (guarded, with and without injected faults) must not corrupt each
        other's temporaries -- and no two of them are handed one arena."""
        plans = {160 + 16 * i: plan for i, plan in enumerate(PLANS)}
        cache = PlanCache(tmp_path / "plans.json")
        for n, plan in plans.items():
            cache.put(n, n, n, "float64", plan.threads, plan)
        arenas, wrong = [], []
        start = threading.Barrier(4)

        def hammer(first: int):
            start.wait(timeout=30)
            for i in range(8):
                n, plan = list(plans.items())[(first + i) % len(plans)]
                A, B = random_matrix(n, n, n), random_matrix(n, n, n + 1)
                C = tuner_matmul(A, B, threads=plan.threads, cache=cache,
                                 guard=True)
                bound = error_bound(get_algorithm(plan.algorithm),
                                    plan.steps, n, "float64")
                if not np.linalg.norm(C - A @ B) <= bound * np.linalg.norm(C):
                    wrong.append((first, n))
            arenas.append(dispatch.workspace_for(plans[160], 160, 160, 160,
                                                 "float64", "float64"))

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(4)]
        with faults.inject(*armed):
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and not wrong
        assert len(set(map(id, arenas))) == 4


def test_reset_reaches_live_threads_and_exit_frees_the_rest():
    """``reset_workspaces()`` is the explicit give-back -- called from one
    thread, it frees what other live threads grew -- and an arena is owned
    through its thread object: no sweep, no LRU pressure, a short-lived
    dispatcher's is garbage when it is."""
    def arena():
        return dispatch.workspace_for(PLANS[0], 1024, 1024, 1024,
                                      "float64", "float64")

    seen, parked, done = [], threading.Event(), threading.Event()

    def dispatcher():
        seen.append(weakref.ref(arena()))
        parked.set()
        done.wait(timeout=30)
        seen.append(weakref.ref(arena()))
        seen.append(seen[1]().uses)

    t = threading.Thread(target=dispatcher)
    t.start()
    assert parked.wait(timeout=30) and seen[0]() is not None
    reset_workspaces()
    gc.collect()
    given_back = seen[0]() is None
    done.set()
    t.join(timeout=30)
    assert given_back and not t.is_alive()
    # the thread built its next one, which lives as long as the thread object
    assert seen[2] == 1 and seen[1]() is not arena()
    del t
    gc.collect()
    assert seen[1]() is None
