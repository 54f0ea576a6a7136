"""The compiled step under the schedules.

The parallel schemes run the compiled step -- and form the levels above
their tasks with its kernels over row ranges -- whenever
:func:`repro.codegen.cbackend.chains_fused` says so, and the interpreter
with a threads-wide gemm otherwise.  Pinned here:

1. the kernels: a sweep cut into arbitrary row ranges, in any order, is
   bit-identical to one full-range call;
2. the schedules: worker count never changes a bit (rows are
   independent), every operand layout takes the path the predicate says
   and agrees with the interpreter (that every path computes the product
   in its arena is ``test_oracle.py``'s);
3. the fallback: a compile that fails at the call is counted, warned once
   per algorithm and served by the interpreter in the same arena;
4. the kernel cache: any algorithm object is a dictionary hit after its
   first use, whatever ``name`` it carries;
5. the cost model prices what runs.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from conftest import needs_cc, needs_compiler
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.algorithms import get_algorithm
from repro.codegen import cbackend
from repro.core.algorithm import FastAlgorithm
from repro.core.cost import plan_cost
from repro.core.recursion import multiply as interpreter_multiply
from repro.core.stability import error_bound
from repro.core.workspace import Workspace
from repro.guard import faults
from repro.parallel import blas
from repro.parallel.pool import WorkerPool
from repro.parallel.schedules import (
    SCHEMES,
    multiply_parallel,
    parallel_footprint,
)
from repro.tuner import Plan, dispatch, enumerate_plans
from repro.tuner import space as tuner_space

#: +-1 entries (bit-for-bit against the interpreter), entries with other
#: coefficients, and approximate (APA) ones
UNIT = ("strassen", "winograd", "hk223", "s333")
GENERAL = ("s234", "s424", "bini322")

_pools: dict[int, WorkerPool] = {}


def _pool(workers: int) -> WorkerPool:
    if workers not in _pools:
        _pools[workers] = WorkerPool(workers)
    return _pools[workers]


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    while _pools:
        _pools.popitem()[1].shutdown()


@pytest.fixture
def telemetry():
    obs.enable()
    obs.reset()
    yield obs
    obs.disable()
    obs.reset()


def _chains_ran(scheme: str, threads: int) -> set[str]:
    """Which kernels the ``parallel.<scheme>`` spans recorded so far say
    formed the chains."""
    return {kind for kind in ("fused", "numpy")
            if obs.span_stats(f"parallel.{scheme}", threads=threads,
                              chains=kind)}


def _reference(A, B, alg, steps):
    with blas.blas_threads(1):
        return interpreter_multiply(A, B, alg, steps=steps)


# =========================================================================
# 1. the kernels over row ranges
# =========================================================================
@st.composite
def partitions(draw, nrows):
    """``[0, nrows)`` cut at random points (empty ranges included), the
    ranges in random order."""
    cuts = sorted(draw(st.lists(st.integers(0, nrows), max_size=5)))
    bounds = [0] + cuts + [nrows]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    return draw(st.permutations(ranges))


@needs_compiler
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), name=st.sampled_from(UNIT + GENERAL),
       cse=st.booleans(),
       dims=st.tuples(st.integers(1, 9), st.integers(1, 9),
                      st.integers(1, 9)),
       pad=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_kernels_range_by_range_equal_one_sweep(data, name, cse, dims, pad,
                                                seed):
    cc = cbackend.compile_chains(name, cse=cse)
    m, k, n = cc.algorithm.base_case
    bp, bq, bn = dims
    rng = np.random.default_rng(seed)
    # row-strided parents: the kernels must honour ldx / ldc
    A = rng.uniform(-1, 1, (m * bp, k * bq + pad))[:, :k * bq]
    B = rng.uniform(-1, 1, (k * bq, n * bn + pad))[:, :n * bn]
    M = rng.uniform(-1, 1, (cc.algorithm.rank, bp * bn))
    s_rows, t_rows, y_rows = cc.descriptor.rows
    Y = np.empty(y_rows * bn) if y_rows else None

    def sweep(kernel, nrows, out_shape, view=lambda X: X):
        whole = np.full(out_shape, np.nan)
        kernel(view(whole), 0, nrows)
        parts = np.full(out_shape, np.nan)
        for i0, i1 in data.draw(partitions(nrows)):
            kernel(view(parts), i0, i1)
        # NaN-prefilled: equal bits also proves nothing outside a range's
        # rows was written and nothing inside was skipped
        assert np.array_equal(whole, parts, equal_nan=True)

    sweep(lambda S, i0, i1: cc.form_S(A, bp, bq, S, i0, i1), bp,
          (s_rows, bp * bq))
    sweep(lambda T, i0, i1: cc.form_T(B, bq, bn, T, i0, i1), bq,
          (t_rows, bq * bn))
    Mrows = cc.product_rows([row.reshape(bp, bn) for row in M])
    sweep(lambda C, i0, i1: cc.form_C(Mrows, bp, bn, C, Y, i0, i1), bp,
          (m * bp, n * bn + pad), view=lambda X: X[:, :n * bn])


@needs_compiler
def test_empty_range_writes_nothing():
    cc = cbackend.compile_chains("strassen")
    A = np.ones((8, 8))
    slab = np.full((cc.descriptor.rows[0], 16), np.nan)
    cc.form_S(A, 4, 4, slab, 2, 2)
    assert np.isnan(slab).all()


# =========================================================================
# 2. the schedules
# =========================================================================
@needs_cc
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name,steps", [("strassen", 2), ("s333", 1),
                                        ("s234", 1), ("s424", 1)])
def test_worker_count_never_changes_a_bit(scheme, name, steps, telemetry):
    alg = get_algorithm(name)
    rng = np.random.default_rng(7)
    A = rng.uniform(-1, 1, (97, 85))
    B = rng.uniform(-1, 1, (85, 101))
    ref = _reference(A, B, alg, steps)
    for workers in (1, 2, 3, 4):
        C = multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                              pool=_pool(workers), threads=workers)
        assert np.array_equal(C, ref), (scheme, workers)
        assert _chains_ran(scheme, workers) == {"fused"}


def _layouts(p, q, r, rng):
    """``(label, A, B, out)`` over what a caller can legally pass."""
    A = rng.uniform(-1, 1, (p, q))
    B = rng.uniform(-1, 1, (q, r))
    wide = rng.uniform(-1, 1, (p, q + 5))
    return [
        ("contiguous", A, B, None),
        ("fortran", np.asfortranarray(A), np.asfortranarray(B), None),
        ("row-strided", wide[:, 2:q + 2], B, None),
        ("every-other-row", np.repeat(A, 2, axis=0)[::2], B, None),
        ("reversed-rows", A[::-1], B, None),
        ("reversed-cols", A, B[:, ::-1], None),
        ("strided-cols", np.repeat(A, 2, axis=1)[:, ::2], B, None),
        ("broadcast-rows", np.broadcast_to(A[:1], (p, q)), B, None),
        ("broadcast-cols", A, np.broadcast_to(B[:, :1], (q, r)), None),
        ("out-row-strided", A, B, np.empty((p, r + 3))[:, :r]),
        ("out-fortran", A, B, np.empty((r, p)).T),
        ("out-reversed", A, B, np.empty((p, r))[::-1]),
        ("float32", A.astype(np.float32), B.astype(np.float32), None),
        ("mixed", A.astype(np.float32), B, None),
        ("integer", (A * 8).astype(np.int64), (B * 8).astype(np.int64),
         None),
    ]


@needs_cc
@pytest.mark.parametrize("scheme", ("dfs", "hybrid"))
# odd shapes around the cutoff: 4 and 5 split once (blocks of 2), 7 peels
# every dimension, 67 x 35 x 70 takes two levels with peeling at both
@pytest.mark.parametrize("shape", [(4, 5, 4), (7, 7, 7), (67, 35, 70)])
def test_every_layout_takes_the_predicates_path(scheme, shape, telemetry):
    alg = get_algorithm("strassen")
    rng = np.random.default_rng(3)
    for label, A, B, out in _layouts(*shape, rng):
        obs.reset()
        want = "fused" if cbackend.chains_fused(
            A.dtype, B.dtype, scheme, (A, B, out)) else "numpy"
        # the tree runs the step on the operands in place; DFS is the
        # sequential driver, which packs every float layout
        in_place = label in ("contiguous", "row-strided", "every-other-row",
                             "out-row-strided", "float32")
        assert want == ("fused" if in_place or scheme == "dfs"
                        and label != "integer" else "numpy"), label
        C = multiply_parallel(A, B, alg, steps=2, scheme=scheme,
                              pool=_pool(2), threads=2, out=out)
        assert _chains_ran(scheme, 2) == {want}, label
        assert out is None or C is out
        ref = _reference(A, B, alg, 2)
        assert C.dtype == ref.dtype
        # a vendor gemm on transposed operands may block differently per
        # thread count (parent behaviour): bits only where the kernels ran
        # in place.  The interpreter forms a mixed pair's chains at float32,
        # the step at double
        bound = "float32" if np.float32 in (A.dtype, B.dtype) else "float64"
        assert np.linalg.norm(C - ref) <= np.linalg.norm(ref) * error_bound(
            alg, 2, shape[1], bound), label
        if in_place:
            assert np.array_equal(C, ref), label


@needs_cc
def test_section_4_1_arena_grows_to_hold_the_slabs(telemetry):
    """``Workspace.for_recursion`` holds one S/T/M_r triple per level --
    DFS's "no extra memory" -- which cannot hold the slabs: the call
    reserves the layout of the kernels it runs, whatever it was handed."""
    alg = get_algorithm("strassen")
    rng = np.random.default_rng(9)
    A = rng.uniform(-1, 1, (64, 64))
    ws = Workspace.for_recursion([alg.base_case], 64, 64, 64,
                                 algorithms=[alg])
    assert ws.nbytes < parallel_footprint(alg, 1, "dfs", 64, 64, 64)
    C = multiply_parallel(A, A, alg, steps=1, scheme="dfs", pool=_pool(2),
                          threads=2, workspace=ws)
    assert _chains_ran("dfs", 2) == {"fused"}
    assert ws.nbytes == parallel_footprint(alg, 1, "dfs", 64, 64, 64)
    assert ws.overflow_allocations == 0 and ws.high_water > 0
    assert np.array_equal(C, _reference(A, A, alg, 1))


def test_no_compiler_means_numpy_everywhere(monkeypatch, telemetry):
    monkeypatch.setattr(cbackend, "available", lambda: False)
    alg = get_algorithm("strassen")
    A = np.random.default_rng(1).uniform(-1, 1, (40, 40))
    assert not cbackend.chains_fused("float64")
    ws = Workspace(parallel_footprint(alg, 1, "bfs", 40, 40, 40))
    C = multiply_parallel(A, A, alg, steps=1, scheme="bfs", pool=_pool(2),
                          threads=2, workspace=ws)
    assert _chains_ran("bfs", 2) == {"numpy"}
    assert ws.overflow_allocations == 0
    assert np.array_equal(C, _reference(A, A, alg, 1))


# =========================================================================
# 3. chaos: the compile fails at the call
# =========================================================================
@needs_cc
@pytest.mark.chaos
@pytest.mark.parametrize("scheme,steps", [("dfs", 1), ("hybrid", 2)])
def test_compilefail_falls_back_inside_the_arena(
        scheme, steps, fresh_cache_state, telemetry, caplog):
    dispatch.reset_workspaces()      # also forgets who was warned
    plan = Plan(algorithm="strassen", steps=steps, scheme=scheme, threads=2)
    rng = np.random.default_rng(13)
    A = rng.uniform(-1, 1, (96, 96))
    B = rng.uniform(-1, 1, (96, 96))
    ref = _reference(A, B, get_algorithm("strassen"), steps)
    ws = dispatch.build_workspace(plan, 96, 96, 96, A.dtype, B.dtype)
    calls = 3
    with caplog.at_level(logging.WARNING, logger=cbackend.__name__):
        with faults.inject("cbackend.compilefail"):
            for _ in range(calls):
                C = dispatch.execute_plan(plan, A, B, pool=_pool(2),
                                          workspace=ws)
                assert np.array_equal(C, ref)
    assert _chains_ran(scheme, 2) == {"numpy"}
    assert obs.counter_value("cbackend.fallbacks") == calls
    warned = [rec for rec in caplog.records if "unavailable" in rec.message]
    assert len(warned) == 1 and "strassen" in warned[0].getMessage()
    # the arena was laid out for the kernels that failed to load: the
    # fallback reserved the interpreter's layout in it instead of
    # mis-fitting it
    assert ws.nbytes == parallel_footprint(
        get_algorithm("strassen"), steps, scheme, 96, 96, 96, fused=False)
    assert ws.high_water > 0 and ws.overflow_allocations == 0
    # the world healed: the same arena serves the kernels it was built for
    C = dispatch.execute_plan(plan, A, B, pool=_pool(2), workspace=ws)
    assert np.array_equal(C, ref)
    assert _chains_ran(scheme, 2) == {"numpy", "fused"}
    assert ws.nbytes == dispatch.plan_footprint(plan, 96, 96, 96, A.dtype,
                                                B.dtype)
    assert ws.high_water > 0 and ws.overflow_allocations == 0
    faults.reset_fired()


# =========================================================================
# 4. the kernel cache is keyed by the algorithm, not its name
# =========================================================================
@needs_cc
@pytest.mark.parametrize("registry,carried", [
    ("s225", "hk225"), ("s334", "c334"), ("s344", "c344"),
    ("s336", "c336")])
def test_any_algorithm_object_is_a_cache_hit(registry, carried, telemetry):
    """These entries carry a ``name`` that is not their registry key (three
    of the four are not registered under it at all); the schedules hand
    over the object, which used to rebuild chains + source + digest on
    every call."""
    alg = get_algorithm(registry)
    assert alg.name == carried
    cc = cbackend.compile_chains(alg)
    obs.reset()
    assert cbackend.compile_chains(alg) is cc
    assert cbackend.compile_chains(registry) is cc
    # an equal algorithm built elsewhere (transformed, deserialised, ad
    # hoc) finds the same kernels
    twin = FastAlgorithm.from_dict(alg.to_dict())
    assert twin is not alg and cbackend.compile_chains(twin) is cc
    A = np.random.default_rng(2).uniform(-1, 1, (60, 60))
    for _ in range(2):
        multiply_parallel(A, A, alg, steps=1, scheme="dfs", pool=_pool(2),
                          threads=2)
    assert _chains_ran("dfs", 2) == {"fused"}
    assert obs.span_stats("cbackend.load") is None


# =========================================================================
# 5. the cost model prices what runs
# =========================================================================
class TestCostPricesWhatRuns:
    @pytest.fixture(autouse=True)
    def machine(self, use_machine):
        use_machine(gflops=10.0, add_gbs=20.0, call_s=2e-6, task_s=5e-5)

    @staticmethod
    def _fused(monkeypatch, yes: bool):
        monkeypatch.setattr(cbackend, "available", lambda: yes)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", ("strassen", "s424", "s333"))
    def test_fused_never_costs_more(self, scheme, name, monkeypatch):
        alg = get_algorithm(name)
        for steps in (1, 2):
            for threads in (2, 4):
                cost = {}
                for fused in (True, False):
                    self._fused(monkeypatch, fused)
                    cost[fused] = plan_cost(alg, 1024, 1024, 1024, steps,
                                            scheme=scheme, threads=threads)
                assert cost[True] < cost[False]

    def test_float32_and_sequential_are_priced_by_the_rule(self, monkeypatch):
        """Every fast plan, float32 and sequential ones included, is priced
        for the kernels that will form its chains."""
        alg = get_algorithm("strassen")
        for kw in (dict(scheme="dfs", threads=2, dtype="float32"),
                   dict(scheme="sequential", dtype="float32"),
                   dict(scheme="sequential", threads=2)):
            self._fused(monkeypatch, True)
            with_cc = plan_cost(alg, 512, 512, 512, 1, **kw)
            self._fused(monkeypatch, False)
            assert plan_cost(alg, 512, 512, 512, 1, **kw) > with_cc

    def test_dfs_fanouts_do_not_grow_with_the_chains(self, use_machine,
                                                     monkeypatch):
        """Three sweeps a level, whatever the algorithm: with free
        additions and gemms only the fan-out term is left."""
        use_machine(gflops=1e9, add_gbs=1e9, task_s=1e-3)
        for fused in (True, False):
            self._fused(monkeypatch, fused)
            fanouts = [round(plan_cost(get_algorithm(name), 1296, 1296, 1296,
                                       1, scheme="dfs", threads=2)
                             / (2 * 1e-3)) for name in ("strassen", "s333")]
            if fused:
                assert fanouts == [3, 3]
            else:      # one per chain: strassen's 22, more for <3,3,3>
                assert fanouts[0] == 22 < fanouts[1]

    def test_tree_is_charged_the_tasks_it_submits(self, use_machine,
                                                  monkeypatch):
        use_machine(gflops=1e9, add_gbs=1e9, task_s=1e-3)
        alg = get_algorithm("strassen")
        self._fused(monkeypatch, True)
        # one level at 4 threads: 4 ranges to expand, 7 leaves, 4 to combine
        assert plan_cost(alg, 512, 512, 512, 1, scheme="bfs",
                         threads=4) == pytest.approx(15e-3, rel=1e-3)
        # two levels: (4 + 7*1) ranges each way, 49 leaves
        assert plan_cost(alg, 512, 512, 512, 2, scheme="bfs",
                         threads=4) == pytest.approx(71e-3, rel=1e-3)
        self._fused(monkeypatch, False)
        assert plan_cost(alg, 512, 512, 512, 1, scheme="bfs",
                         threads=4) == pytest.approx(15e-3, rel=1e-3)

    def test_a_wave_is_no_faster_than_the_vendor_on_all_threads(
            self, use_machine):
        """Leaves side by side share the machine: where two BLAS threads
        buy sqrt(2), two single-thread leaves do not buy 2."""
        alg = get_algorithm("strassen")
        leaf = 2 * 512**3 / 10e9            # one thread, alone
        for scaling, wave in ((1.0, leaf), (0.5, 2 * leaf / 2**0.5)):
            use_machine(gflops=10.0, add_gbs=1e9, blas_scaling=scaling)
            wide = leaf / 2**scaling
            cost = {scheme: plan_cost(alg, 1024, 1024, 1024, 1,
                                      scheme=scheme, threads=2)
                    for scheme in ("dfs", "bfs", "hybrid")}
            # 7 leaves on 2 threads: three full waves and one leaf over
            assert cost["bfs"] == pytest.approx(3 * wave + leaf, rel=1e-3)
            assert cost["hybrid"] == pytest.approx(3 * wave + wide, rel=1e-3)
            assert cost["dfs"] == pytest.approx(7 * wide, rel=1e-3)

    #: two calibrations this kind of machine really produces (2 vCPU,
    #: OpenBLAS): per thread count the gflops at 32..1024, the add GB/s,
    #: ``call_s`` and ``task_s``.  A neighbour's burst on the two-thread
    #: 1024^3 point, and a lone thread timed faster than it runs beside
    #: another -- either used to put a tree plan that measures 0.65x dgemm
    #: at the head of the 2048^3 ranking
    NOISY = {
        "the top point fell": {
            2: ([34.2, 70.1, 85.4, 128.0, 145.0, 92.5], 12.8, 1.1e-5, 6.8e-5),
            1: ([21.4, 50.3, 47.4, 62.0, 63.2, 70.5], 17.5, 1.6e-5, 0.0)},
        "a fast lone thread": {
            2: ([22.7, 57.8, 67.8, 96.4, 118.4, 113.4], 19.4, 2.0e-5, 6.9e-5),
            1: ([21.8, 52.3, 45.5, 47.7, 55.5, 69.1], 15.3, 1.7e-5, 0.0)},
    }

    @pytest.mark.parametrize("case", sorted(NOISY))
    def test_calibration_noise_does_not_unseat_dgemm(self, case, monkeypatch):
        from repro.bench import machine

        sizes = [32, 64, 128, 256, 512, 1024]
        cals = {t: machine.Calibration(
                    "float64", t, machine.GemmCurve(sizes, gflops, threads=t),
                    add_gbs, call_s, task_s)
                for t, (gflops, add_gbs, call_s, task_s)
                in self.NOISY[case].items()}
        monkeypatch.setattr(machine, "calibration",
                            lambda dtype="float64", threads=1, volume=0:
                            cals[threads])
        self._fused(monkeypatch, True)
        assert enumerate_plans(2048, 2048, 2048, threads=2)[0].is_dgemm

    #: a calibration taken in the first seconds of a process on a 2-vCPU
    #: VM, where every 2-thread gemm from 128 up waited ~16 ms for the
    #: second vCPU (gflops at 32..512, add GB/s, call_s, task_s)
    STALLED = {2: ([17.0, 44.5, 0.3, 2.4, 12.1], 11.6, 2.8e-5, 8.2e-5),
               1: ([17.9, 47.0, 35.3, 41.1, 45.4], 5.8, 2.8e-5, 0.0)}

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_a_stalled_two_thread_curve_does_not_unseat_dgemm(
            self, n, monkeypatch):
        """A T-thread gemm is priced no slower than a one-thread one: the
        stalled points used to put a dfs plan that runs 10x slower than
        dgemm at the head of the 128^3 and 256^3 rankings."""
        from repro.bench import machine

        sizes = [32, 64, 128, 256, 512]
        cals = {t: machine.Calibration(
                    "float64", t, machine.GemmCurve(sizes, gflops, threads=t),
                    add_gbs, call_s, task_s)
                for t, (gflops, add_gbs, call_s, task_s)
                in self.STALLED.items()}
        monkeypatch.setattr(machine, "calibration",
                            lambda dtype="float64", threads=1, volume=0:
                            cals[threads])
        self._fused(monkeypatch, True)
        assert enumerate_plans(n, n, n, threads=2)[0].is_dgemm
        assert plan_cost(None, n, n, n, 0, threads=2) == plan_cost(
            None, n, n, n, 0, threads=1)

    def test_ranking_memo_is_keyed_on_the_compiler(self, monkeypatch):
        """A compiler appearing or disappearing re-ranks: the memoised
        order of one world is never served in the other."""
        tuner_space._ranked_plans.cache_clear()
        seen = {}
        for fused in (True, False, True):
            self._fused(monkeypatch, fused)
            plans = enumerate_plans(1024, 1024, 1024, threads=2)
            alg = get_algorithm(plans[0].algorithm)
            best = plan_cost(alg, 1024, 1024, 1024, plans[0].steps,
                             scheme=plans[0].scheme, threads=2)
            assert seen.setdefault(fused, (plans, best)) == (plans, best)
        assert seen[True][1] < seen[False][1]
        info = tuner_space._ranked_plans.cache_info()
        assert (info.misses, info.hits) == (2, 1)


# =========================================================================
# 6. the arena: BFS levels only where the parallelism needs them
# =========================================================================
def test_two_level_hybrid_arena_is_the_top_level_plus_step_regions():
    """The top level's slabs, the one child left over from three waves,
    expanded, and two step regions: 136 + 34 + 2 x 22 MiB.  The whole
    level-synchronous tree held 374."""
    plan = Plan(algorithm="strassen", steps=2, scheme="hybrid", threads=2)
    assert dispatch.plan_footprint(plan, 2048, 2048, 2048, "float64",
                                   "float64") <= 215 * 2**20


@needs_cc
@pytest.mark.chaos
def test_worker_death_in_the_child_wave_is_survived(monkeypatch, tmp_path,
                                                    telemetry):
    """A worker dies while the children run as tasks: the guard serves the
    exact product, and the next warm call spills nothing."""
    from repro.parallel import schedules
    from repro.tuner import PlanCache, matmul

    n = 192
    plan = Plan(algorithm="strassen", steps=2, scheme="hybrid", threads=2)
    cache = PlanCache(tmp_path / "plans.json")
    cache.put(n, n, n, "float64", 2, plan, seconds=0.01, gflops=1.0)
    rng = np.random.default_rng(17)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    label = schedules._label_tasks

    def die_in_the_wave(pool, text):
        if text.endswith("bfs_batch") and not faults.fired("worker.die"):
            faults.arm("worker.die:1")
        label(pool, text)

    monkeypatch.setattr(schedules, "_label_tasks", die_in_the_wave)
    try:
        C = matmul(A, B, threads=2, cache=cache, guard=True)
    finally:
        faults.clear()
    assert faults.fired("worker.die") == 1
    assert np.array_equal(C, np.matmul(A, B))
    faults.reset_fired()
    monkeypatch.setattr(schedules, "_label_tasks", label)
    out = np.empty((n, n))
    for _ in range(2):
        matmul(A, B, threads=2, cache=cache, out=out)
        rec = obs.dispatch_records()[-1]
        assert rec["plan"] == plan.describe() and rec["source"] == "cache"
        assert rec["arena_overflows"] == 0 < rec["arena_high_water"]
    assert np.linalg.norm(out - A @ B) <= error_bound(
        get_algorithm("strassen"), 2, n, "float64") * np.linalg.norm(out)


# =========================================================================
# 7. what the step cannot address runs the interpreter, the paper's DFS
# =========================================================================
@pytest.mark.parametrize("scheme", ("bfs", "hybrid"))
@pytest.mark.parametrize("case", ("mixed", "int64", "strided-B",
                                  "compilefail"))
def test_a_tree_plan_the_step_cannot_serve_runs_the_interpreter(
        scheme, case, fresh_cache_state, telemetry):
    p, q, r = 101, 75, 99
    plan = Plan(algorithm="strassen", steps=2, scheme=scheme, threads=2)
    rng = np.random.default_rng(19)
    A = rng.uniform(-1, 1, (p, q))
    B = rng.uniform(-1, 1, (q, r))
    if case == "mixed":
        A = A.astype(np.float32)
    elif case == "int64":
        A, B = (A * 8).astype(np.int64), (B * 8).astype(np.int64)
    elif case == "strided-B":
        B = np.repeat(B, 2, axis=1)[:, ::2]
    failing = case == "compilefail" and cbackend.available()
    with faults.inject(*["cbackend.compilefail"] * failing):
        C = dispatch.execute_plan(plan, A, B, pool=_pool(2))
    ref = np.matmul(A, B)
    # the interpreter forms a float32 operand's chains at its precision
    low = "float32" if case == "mixed" else "float64"
    assert np.linalg.norm(C - ref) <= error_bound(
        get_algorithm("strassen"), 2, q, low) * np.linalg.norm(ref)
    assert _chains_ran(scheme, 2) == {"numpy"}
    faults.reset_fired()
