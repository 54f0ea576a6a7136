"""Tests for repro.tuner.batched: one plan/arena/pool for a whole batch.

Five claims are pinned down here:

1. **bit-for-bit equivalence** -- ``matmul_batched`` equals a per-element
   loop of ``execute_plan`` with the *same plan* (not merely allclose to
   BLAS: fast algorithms differ from gemm in rounding, but batching must
   not change a single bit relative to the per-call path it amortizes),
   across batch modes, schemes, dtypes and shapes straddling the trivial
   boundary;
2. the stacked 3-D and list-of-2-D operand forms agree, and malformed
   batches (ragged, mixed-dtype, bad ``out=``) are rejected with
   explanatory errors rather than silently looped;
3. **amortization is real**: a warm batched call resolves one plan, runs
   under one span, and grows no arena (telemetry counters), and
   with ``out=`` stays under the per-call byte budget for the whole batch
   (tracking allocator);
4. resolution sources behave: ``forced`` pins the mode, ``model``
   cost-ranks the within/elementwise heads, ``tune="auto"`` measures once
   and the committed batched entry is served as ``cache`` on reload;
5. the batched cache keys coexist with per-call keys -- ``nearest`` skips
   them, ``get_batched`` falls back to the nearest batch size.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.core.cost import batch_cost
from repro.core.workspace import Workspace, track_allocations
from repro.obs import telemetry
from repro.tuner import (
    BatchPlan,
    Plan,
    PlanCache,
    batched,
    batched_key,
    dispatch,
    enumerate_batch_plans,
    measure,
    reset_workspaces,
)
from repro.tuner.cache import problem_key

LARGE = 1 << 20  # the warm-path "large allocation" threshold


@pytest.fixture(autouse=True)
def clean_state():
    """Batched serving leans on two process-global registries (the
    threads' arenas, telemetry); every test starts and ends clean."""
    reset_workspaces()
    telemetry.disable()
    telemetry.reset()
    yield
    reset_workspaces()
    telemetry.disable()
    telemetry.reset()


@pytest.fixture()
def cache(tmp_path):
    return PlanCache(tmp_path / "plans.json")


def batch_operands(p, q, r, batch, dtype="float64", seed=0):
    return measure.batch_operands(p, q, r, batch, dtype=dtype, seed=seed)


def looped_reference(plan, a_list, b_list):
    """The per-element ground truth: the ordinary execution path, one
    element at a time, with the exact plan the batch will use."""
    pool = None
    if not plan.is_dgemm and plan.scheme != "sequential":
        pool = dispatch._shared_pool(plan.threads)
    return [dispatch.execute_plan(plan, a, b, pool=pool)
            for a, b in zip(a_list, b_list)]


# =========================================================================
# bit-for-bit equivalence with the per-call path
# =========================================================================
#: plans spanning the execution surface the batch can route through:
#: plain BLAS, the generated sequential module, and two parallel schemes
EQUIV_PLANS = [
    Plan(threads=1),  # dgemm
    Plan(algorithm="strassen", steps=1, scheme="sequential", threads=1),
    Plan(algorithm="strassen", steps=1, scheme="dfs", threads=2),
    Plan(algorithm="strassen", steps=2, scheme="hybrid", threads=2),
]


class TestBitForBit:
    @pytest.mark.parametrize("plan", EQUIV_PLANS,
                             ids=lambda p: p.describe())
    @pytest.mark.parametrize("mode", ["within", "elementwise"])
    def test_execute_batch_plan_matches_element_loop(self, plan, mode):
        if mode == "elementwise" and (plan.scheme != "sequential"
                                      or plan.threads != 1):
            pytest.skip("elementwise fans out sequential element plans")
        workers = 2 if mode == "elementwise" else plan.threads
        bplan = BatchPlan(plan=plan, mode=mode, workers=workers)
        A, B = batch_operands(96, 96, 96, 5, seed=7)
        got = batched.execute_batch_plan(bplan, A, B)
        want = looped_reference(plan, list(A), list(B))
        for i in range(5):
            np.testing.assert_array_equal(got[i], want[i])

    @settings(deadline=None, max_examples=12)
    @given(
        n=st.sampled_from([64, 96, 120, 144]),
        batch=st.integers(min_value=1, max_value=6),
        dtype=st.sampled_from(["float32", "float64"]),
        mode=st.sampled_from(["within", "elementwise"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_bit_for_bit(self, n, batch, dtype, mode, seed):
        """Shapes straddle ``trivial_dim`` (96 for f32, 128 for f64): the
        batch must be exact on both sides of the knee, in both modes."""
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        bplan = BatchPlan(plan=plan, mode=mode,
                          workers=2 if mode == "elementwise" else 1)
        A, B = batch_operands(n, n, n, batch, dtype=dtype, seed=seed)
        got = batched.execute_batch_plan(bplan, A, B)
        want = looped_reference(plan, list(A), list(B))
        for i in range(batch):
            np.testing.assert_array_equal(got[i], want[i])

    def test_rectangular_shapes(self):
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        bplan = BatchPlan(plan=plan, mode="within", workers=1)
        A, B = batch_operands(48, 96, 64, 3, seed=3)
        got = batched.execute_batch_plan(bplan, A, B)
        want = looped_reference(plan, list(A), list(B))
        assert got.shape == (3, 48, 64)
        for i in range(3):
            np.testing.assert_array_equal(got[i], want[i])

    def test_matmul_batched_allclose_to_blas(self, cache):
        A, B = batch_operands(64, 64, 64, 4, seed=11)
        got = batched.matmul_batched(A, B, threads=1, cache=cache)
        np.testing.assert_allclose(got, np.matmul(A, B), atol=1e-8 * 64)


# =========================================================================
# operand forms: stacked vs list, out=, rejection of malformed batches
# =========================================================================
class TestOperandForms:
    def test_stacked_and_list_paths_agree(self, cache):
        A, B = batch_operands(64, 64, 64, 4, seed=5)
        stacked = batched.matmul_batched(A, B, threads=1, cache=cache)
        listed = batched.matmul_batched(list(A), list(B), threads=1,
                                        cache=cache)
        assert isinstance(listed, list) and len(listed) == 4
        for i in range(4):
            np.testing.assert_array_equal(stacked[i], listed[i])

    def test_stacked_out_is_written_and_returned(self, cache):
        A, B = batch_operands(64, 64, 64, 3, seed=6)
        out = np.empty((3, 64, 64))
        got = batched.matmul_batched(A, B, out=out, threads=1, cache=cache)
        assert got is out
        np.testing.assert_allclose(out, np.matmul(A, B), atol=1e-8 * 64)

    def test_list_out_views_are_written(self, cache):
        A, B = batch_operands(64, 64, 64, 3, seed=8)
        outs = [np.empty((64, 64)) for _ in range(3)]
        got = batched.matmul_batched(list(A), list(B), out=outs, threads=1,
                                     cache=cache)
        assert got is outs
        for i in range(3):
            np.testing.assert_allclose(outs[i], A[i] @ B[i],
                                       atol=1e-8 * 64)

    def test_empty_stacked_batch(self, cache):
        A = np.empty((0, 32, 16))
        B = np.empty((0, 16, 8))
        got = batched.matmul_batched(A, B, threads=1, cache=cache)
        assert got.shape == (0, 32, 8)
        assert got.dtype == np.float64

    def test_empty_list_batch_raises(self, cache):
        with pytest.raises(ValueError, match="empty batch"):
            batched.matmul_batched([], [], threads=1, cache=cache)

    def test_ragged_batch_raises(self, cache):
        a = [np.ones((8, 8)), np.ones((16, 16))]
        b = [np.ones((8, 8)), np.ones((16, 16))]
        with pytest.raises(ValueError, match="ragged batch"):
            batched.matmul_batched(a, b, threads=1, cache=cache)

    def test_mixed_dtype_batch_raises(self, cache):
        a = [np.ones((8, 8)), np.ones((8, 8), dtype=np.float32)]
        b = [np.ones((8, 8)), np.ones((8, 8))]
        with pytest.raises(ValueError, match="mixed dtypes"):
            batched.matmul_batched(a, b, threads=1, cache=cache)

    def test_mismatched_batch_sizes_raise(self, cache):
        A, B = batch_operands(16, 16, 16, 3)
        with pytest.raises(ValueError, match="batch sizes differ"):
            batched.matmul_batched(A, B[:2], threads=1, cache=cache)

    def test_inner_dim_mismatch_raises(self, cache):
        A = np.ones((2, 8, 8))
        B = np.ones((2, 9, 8))
        with pytest.raises(ValueError, match="inner dimensions"):
            batched.matmul_batched(A, B, threads=1, cache=cache)

    def test_2d_operands_rejected_with_hint(self, cache):
        with pytest.raises(ValueError, match="must be 3-D"):
            batched.matmul_batched(np.ones((8, 8)), np.ones((8, 8)),
                                   threads=1, cache=cache)

    def test_out_overlapping_operand_raises(self, cache):
        A, B = batch_operands(16, 16, 16, 2)
        with pytest.raises(ValueError, match="overlap"):
            batched.matmul_batched(A, B, out=A, threads=1, cache=cache)

    def test_out_wrong_shape_raises(self, cache):
        A, B = batch_operands(16, 16, 16, 2)
        with pytest.raises(ValueError, match="shape"):
            batched.matmul_batched(A, B, out=np.empty((3, 16, 16)),
                                   threads=1, cache=cache)

    def test_bad_batch_mode_raises(self, cache):
        A, B = batch_operands(16, 16, 16, 2)
        with pytest.raises(ValueError, match="batch_mode"):
            batched.matmul_batched(A, B, threads=1, cache=cache,
                                   batch_mode="sideways")

    def test_threads_zero_raises(self, cache):
        A, B = batch_operands(16, 16, 16, 2)
        with pytest.raises(ValueError, match="threads"):
            batched.matmul_batched(A, B, threads=0, cache=cache)


# =========================================================================
# amortization: one plan, one arena (pool), one span per batch
# =========================================================================
class TestAmortization:
    def test_warm_batch_is_one_decision(self, cache):
        """The telemetry ledger of a warm batched call: exactly one
        dispatch.batch_calls, ``batch`` elements, one source increment,
        one span -- and no arena allocations: batches build one per
        worker, ever, and never touch the calling thread's.  ``n=160``
        sits above the trivial boundary so the element plan is a fast one
        with a real arena behind it."""
        n, batch = 160, 6
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        cache.put(n, n, n, "float64", 1, plan)
        A, B = batch_operands(n, n, n, batch, seed=1)
        out = np.empty((batch, n, n))
        telemetry.enable()
        batched.matmul_batched(A, B, out=out, threads=2, cache=cache,
                               batch_mode="elementwise")  # builds the arenas
        built = telemetry.counter_value("workspace.grows")
        telemetry.reset()
        batched.matmul_batched(A, B, out=out, threads=2, cache=cache,
                               batch_mode="elementwise")
        assert telemetry.counter_value("dispatch.batch_calls") == 1
        assert telemetry.counter_value("dispatch.batch_elements") == batch
        assert telemetry.counter_value("dispatch.source",
                                       source="forced") == 1
        # (a worker the cold batch never reached builds its arena now)
        assert 1 <= built + telemetry.counter_value("workspace.grows") <= 2
        stats = telemetry.span_stats("dispatch.batch", mode="elementwise")
        assert stats is not None and stats["count"] == 1
        records = telemetry.dispatch_records()
        assert records and records[-1]["batch"] == batch
        assert records[-1]["batch_mode"] == "elementwise"
        assert records[-1]["arena_bytes"] == dispatch.plan_footprint(
            plan, n, n, n, "float64", "float64")
        assert dispatch.workspace_for(plan, n, n, n, A.dtype,
                                      B.dtype).uses == 1

    def test_compiled_element_plan_fits_its_worker_arenas(self, cache):
        """The workers' reservations follow the element plan's *backend*:
        sized for the interpreter, every warm compiled element overflowed."""
        from repro.codegen import cbackend
        from repro.core.stability import error_bound

        if not cbackend.available():
            pytest.skip("no C compiler")
        n, batch = 256, 8
        cache.put(n, n, n, "float64", 1,
                  Plan(algorithm="strassen", steps=1, threads=1,
                       backend="compiled"))
        A, B = batch_operands(n, n, n, batch, seed=5)
        telemetry.enable()
        for _ in range(3):
            C = batched.matmul_batched(A, B, threads=2, cache=cache,
                                       batch_mode="elementwise")
        assert telemetry.counter_value("workspace.overflows") == 0
        assert all(0 == rec["arena_overflows"] < rec["arena_high_water"]
                   for rec in telemetry.dispatch_records())
        exact = np.matmul(A, B)
        rel = np.linalg.norm(C - exact) / np.linalg.norm(exact)
        assert rel <= error_bound(get_algorithm("strassen"), 1, n, "float64")

    @pytest.mark.parametrize("mode", ["within", "elementwise"])
    def test_warm_batch_is_allocation_free(self, mode, cache):
        """With ``out=``, a warm batched call stays under the per-call
        byte budget for the *whole batch* -- the headline amortization."""
        n, batch = 128, 8
        cache.put(n, n, n, "float64", 1,
                  Plan(algorithm="strassen", steps=1, scheme="sequential",
                       threads=1))
        A, B = batch_operands(n, n, n, batch, seed=4)
        out = np.empty((batch, n, n))
        threads = 2 if mode == "elementwise" else 1
        batched.matmul_batched(A, B, out=out, threads=threads, cache=cache,
                               batch_mode=mode)  # warm arenas + pool
        with track_allocations() as rep:
            batched.matmul_batched(A, B, out=out, threads=threads,
                                   cache=cache, batch_mode=mode)
        assert rep.peak_bytes is not None and rep.peak_bytes < LARGE, mode
        np.testing.assert_allclose(out, np.matmul(A, B), atol=1e-8 * n)

    @pytest.mark.parametrize("mode", ["within", "elementwise"])
    def test_warm_batch_surfaces_arena_overflow(self, mode, cache,
                                                monkeypatch, caplog):
        """An undersized batch reservation is counted, every overflow of
        every element whichever worker ran it, and warned about once per
        (plan, shape, dtype), like a per-call one; a measurement sweep
        outside the serving tail reports nothing."""
        n, batch = 256, 4
        plan = Plan(algorithm="strassen", steps=1, threads=1)
        cache.put(n, n, n, "float64", 1, plan)
        monkeypatch.setattr(dispatch, "plan_footprint",
                            lambda plan, *a: 0 if plan.is_dgemm else 64)
        A, B = batch_operands(n, n, n, batch, seed=6)
        threads = 2 if mode == "elementwise" else 1
        probe = Workspace(64)  # what one element spills past 64 bytes
        dispatch.execute_plan(plan, A[0], B[0], workspace=probe)
        assert probe.overflow_allocations > 0
        telemetry.enable()
        with caplog.at_level(logging.WARNING, logger=dispatch.__name__):
            batched.execute_batch_plan(
                BatchPlan(plan=plan, mode=mode, workers=threads), A, B,
                warm=False)
            assert telemetry.counter_value("workspace.overflows") == 0
            for _ in range(2):
                batched.matmul_batched(A, B, threads=threads, cache=cache,
                                       batch_mode=mode)
        assert (telemetry.counter_value("workspace.overflows")
                == 2 * batch * probe.overflow_allocations)
        assert telemetry.dispatch_records()[-1]["arena_overflows"] > 0
        warned = [rec for rec in caplog.records
                  if "workspace arena overflowed" in rec.message]
        assert len(warned) == 1


# =========================================================================
# resolution sources: forced / model / tuned / cache
# =========================================================================
class TestResolution:
    def test_forced_modes(self, cache):
        within, src_w = batched.get_batch_plan(96, 96, 96, 4, threads=2,
                                               cache=cache,
                                               batch_mode="within")
        elem, src_e = batched.get_batch_plan(96, 96, 96, 4, threads=2,
                                             cache=cache,
                                             batch_mode="elementwise")
        assert src_w == src_e == "forced"
        assert within.mode == "within"
        assert elem.mode == "elementwise"
        assert elem.plan.scheme == "sequential" and elem.plan.threads == 1
        assert elem.workers == 2

    def test_single_thread_has_no_elementwise_head(self, cache):
        bplan, source = batched.get_batch_plan(96, 96, 96, 4, threads=1,
                                               cache=cache)
        assert source == "model" and bplan.mode == "within"

    def test_model_ranks_both_heads(self, cache):
        """At multi-thread the model must have both modes on the table;
        whichever wins, it is the batch_cost argmin of the candidates."""
        bplan, source = batched.get_batch_plan(96, 96, 96, 6, threads=2,
                                               cache=cache)
        assert source == "model"
        assert bplan.mode in ("within", "elementwise")
        shortlist = enumerate_batch_plans(96, 96, 96, 6, threads=2,
                                          max_candidates=4)
        assert any(bp.mode == "elementwise" for bp in shortlist)
        assert any(bp.mode == "within" for bp in shortlist)

    def test_tune_auto_commits_and_cache_serves(self, cache, tmp_path):
        """``tune="auto"`` measures the batch axis once; a fresh cache
        loaded from the same file then serves the decision as "cache"."""
        n, batch = 64, 4
        A, B = batch_operands(n, n, n, batch, seed=9)
        telemetry.enable()
        batched.matmul_batched(A, B, threads=2, cache=cache, tune="auto")
        assert telemetry.counter_value("dispatch.source",
                                       source="tuned") == 1
        assert cache.get_batched(n, n, n, "float64", 2, batch) is not None
        reloaded = PlanCache(tmp_path / "plans.json")
        _, source = batched.get_batch_plan(n, n, n, batch, threads=2,
                                           cache=reloaded)
        assert source == "cache"
        telemetry.reset()
        batched.matmul_batched(A, B, threads=2, cache=reloaded,
                               tune="auto")  # cache hit: no re-tuning
        assert telemetry.counter_value("dispatch.source",
                                       source="cache") == 1

    def test_cached_elementwise_rewrapped_at_current_threads(self, cache):
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        cache.put_batched(64, 64, 64, "float64", 4, 8,
                          BatchPlan(plan=plan, mode="elementwise",
                                    workers=4),
                          seconds=0.01, gflops=1.0)
        # same key family, served at a smaller pool: workers must follow
        hit = cache.get_batched(64, 64, 64, "float64", 4, 8)
        assert hit is not None and hit.workers == 4
        bplan, source = batched.get_batch_plan(64, 64, 64, 8, threads=4,
                                               cache=cache)
        assert source == "cache" and bplan.workers == 4

    def test_tune_batch_returns_measured_winner(self, cache):
        bplan = measure.tune_batch(64, 64, 64, 4, threads=2, cache=cache,
                                   trials=1, budget_s=10.0,
                                   max_candidates=2, persist=False)
        assert isinstance(bplan, BatchPlan)
        assert cache.get_batched(64, 64, 64, "float64", 2, 4) is not None


# =========================================================================
# cache coexistence: batched keys vs per-call keys
# =========================================================================
class TestBatchedCache:
    def test_batched_key_extends_problem_key(self):
        assert batched_key(64, 32, 16, "float64", 2, 8) == \
            problem_key(64, 32, 16, "float64", 2) + ":b8"

    def test_nearest_skips_batched_entries(self, cache):
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        cache.put_batched(128, 128, 128, "float64", 1, 8,
                          BatchPlan(plan=plan, mode="within", workers=1),
                          seconds=0.01, gflops=1.0)
        assert cache.nearest(130, 130, 130, "float64", 1) is None
        cache.put(128, 128, 128, "float64", 1, plan)
        hit = cache.nearest(130, 130, 130, "float64", 1)
        assert hit is not None and hit.algorithm == "strassen"

    def test_get_batched_nearest_batch_fallback(self, cache):
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        cache.put_batched(64, 64, 64, "float64", 1, 8,
                          BatchPlan(plan=plan, mode="within", workers=1),
                          seconds=0.01, gflops=1.0)
        # no entry at batch=6: the log-nearest batched entry (b8) serves
        hit = cache.get_batched(64, 64, 64, "float64", 1, 6)
        assert hit is not None and hit.mode == "within"
        assert cache.get_batched(65, 64, 64, "float64", 1, 8) is None

    def test_old_readers_unaffected(self, cache, tmp_path):
        """A cache file holding batched keys round-trips through save/load
        and plain ``get`` never sees them."""
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        cache.put(64, 64, 64, "float64", 1, plan)
        cache.put_batched(64, 64, 64, "float64", 1, 8,
                          BatchPlan(plan=plan, mode="within", workers=1),
                          seconds=0.01, gflops=1.0)
        cache.save()
        reloaded = PlanCache(tmp_path / "plans.json")
        assert reloaded.get(64, 64, 64, "float64", 1) is not None
        got = reloaded.get_batched(64, 64, 64, "float64", 1, 8)
        assert got is not None and got.plan.algorithm == "strassen"


# =========================================================================
# the batch-cost model and the sweep space
# =========================================================================
class TestBatchCost:
    def test_cost_scales_with_batch(self):
        alg = get_algorithm("strassen")
        one = batch_cost(alg, 96, 96, 96, 1, 1)
        four = batch_cost(alg, 96, 96, 96, 1, 4)
        assert four > one

    def test_elementwise_waves_amortize_workers(self):
        """4 elements over 4 workers cost ~1 wave; over 1 thread the
        within path pays all 4 serially -- the model must prefer the
        fan-out when workers cover the batch at small shapes."""
        alg = get_algorithm("strassen")
        elem = batch_cost(alg, 96, 96, 96, 1, 4, threads=4,
                          mode="elementwise")
        within = batch_cost(alg, 96, 96, 96, 1, 4, threads=1,
                            mode="within")
        assert elem < within

    def test_gemm_curves_and_task_cost_decide_the_axis(self, use_machine):
        """Seconds, both modes: where a 2-way gemm is no faster than one
        thread (below the Section 3.4 knee) fanning elements out wins,
        until a pool task costs more than an element; with perfectly
        scaling BLAS and free tasks the two tie."""
        def costs():
            return [batch_cost(None, 96, 96, 96, 0, 4, threads=2, mode=mode)
                    for mode in ("elementwise", "within")]
        elem = 2 * 96**3 / 10e9
        use_machine(blas_scaling=0.0)
        assert costs() == pytest.approx([2 * elem, 4 * elem])
        use_machine(blas_scaling=0.0, task_s=elem)
        assert costs() == pytest.approx([2 * elem + 4 * elem, 4 * elem])
        use_machine()
        assert costs() == pytest.approx([2 * elem, 2 * elem])

    def test_invalid_args_raise(self):
        alg = get_algorithm("strassen")
        with pytest.raises(ValueError):
            batch_cost(alg, 8, 8, 8, 1, 0)
        with pytest.raises(ValueError):
            batch_cost(alg, 8, 8, 8, 1, 2, mode="diagonal")

    def test_enumerate_batch_plans_sorted_and_valid(self):
        plans = enumerate_batch_plans(96, 96, 96, 4, threads=2,
                                      max_candidates=3)
        assert plans
        from repro.tuner import batch_plan_cost

        ranked = [batch_plan_cost(bp, 96, 96, 96, 4) for bp in plans]
        assert ranked == sorted(ranked)
        for bp in plans:
            if bp.mode == "elementwise":
                assert bp.plan.scheme == "sequential"
                assert bp.plan.threads == 1

    def test_batch_plan_validation(self):
        seq = Plan(algorithm="strassen", steps=1, scheme="sequential",
                   threads=1)
        par = Plan(algorithm="strassen", steps=1, scheme="dfs", threads=2)
        with pytest.raises(ValueError):
            BatchPlan(plan=par, mode="elementwise", workers=2)
        with pytest.raises(ValueError):
            BatchPlan(plan=seq, mode="within", workers=3)
        bp = BatchPlan(plan=seq, mode="elementwise", workers=2)
        assert "elementwise[2w]" in bp.describe()
        assert BatchPlan.from_dict(bp.to_dict()) == bp
