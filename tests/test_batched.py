"""Tests for repro.tuner.batched: a batch runs its per-call plan.

Five claims are pinned down here:

1. **bit-for-bit equivalence** -- ``matmul_batched`` equals a loop of
   per-call ``matmul`` over the same plan cache (not merely allclose to
   BLAS: fast algorithms differ from gemm in rounding, but batching must
   not change a single bit relative to the per-call path it amortizes),
   across schemes, backends, dtypes and shapes straddling the trivial
   boundary;
2. the stacked 3-D and list-of-2-D operand forms agree, and malformed
   batches (ragged, mixed-dtype, bad ``out=``, an unknown ``tune``) are
   rejected with explanatory errors rather than silently looped;
3. **amortization is real**: a warm batched call resolves one plan, runs
   under one span, reserves the calling thread's arena once and grows
   nothing (telemetry counters), and with ``out=`` stays under the
   per-call byte budget for the whole batch (tracking allocator);
4. resolution is the per-call ladder: ``get_batch_plan`` answers what
   ``get_plan`` answers, and a tuned per-call entry serves the batch;
5. a batch-suffixed key an older release wrote is dropped on load.
"""

from __future__ import annotations

import json
import logging
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.core.workspace import Workspace, track_allocations
from repro.obs import telemetry
from repro.tuner import (
    BatchPlan,
    Plan,
    PlanCache,
    batched,
    dispatch,
    measure,
    reset_workspaces,
)
from repro.tuner.cache import problem_key

LARGE = 1 << 20  # the warm-path "large allocation" threshold
STRASSEN = Plan(algorithm="strassen", steps=1, threads=1)


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
    rng = np.random.default_rng(seed)
    A = (2.0 * rng.random((batch, p, q)) - 1.0).astype(dtype)
    B = (2.0 * rng.random((batch, q, r)) - 1.0).astype(dtype)
    return A, B


def looped_matmul(A, B, threads, cache):
    """The per-element ground truth: the ordinary per-call entry point,
    one element at a time, over the same plan cache."""
    return [dispatch.matmul(a, b, threads=threads, cache=cache)
            for a, b in zip(A, B)]


# =========================================================================
# bit-for-bit equivalence with the per-call path
# =========================================================================
#: plans spanning the execution surface a batch can route through:
#: plain BLAS, the sequential chains and two parallel schemes
EQUIV_PLANS = [
    Plan(threads=1),  # dgemm
    STRASSEN,
    Plan(algorithm="strassen", steps=1, scheme="dfs", threads=2),
    Plan(algorithm="strassen", steps=2, scheme="hybrid", threads=2),
]


class TestBitForBit:
    @pytest.mark.parametrize("plan", EQUIV_PLANS,
                             ids=lambda p: p.describe())
    def test_batch_runs_the_per_call_plan(self, plan, cache):
        n = 192
        cache.put(n, n, n, "float64", plan.threads, plan)
        A, B = batch_operands(n, n, n, 5, seed=7)
        telemetry.enable()
        got = batched.matmul_batched(A, B, threads=plan.threads, cache=cache)
        assert telemetry.dispatch_records()[-1]["plan"] == plan.describe()
        want = looped_matmul(A, B, plan.threads, cache)
        for i in range(5):
            np.testing.assert_array_equal(got[i], want[i])

    @settings(deadline=None, max_examples=12)
    @given(
        n=st.sampled_from([64, 96, 120, 144, 160]),
        batch=st.integers(min_value=1, max_value=6),
        dtype=st.sampled_from(["float32", "float64"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_bit_for_bit(self, n, batch, dtype, seed):
        """Shapes straddle ``trivial_dim`` (64 for f32, 128 for f64): the
        batch is exact on both sides of the knee, where the cached fast
        plan serves and where plain BLAS does."""
        A, B = batch_operands(n, n, n, batch, dtype=dtype, seed=seed)
        with tempfile.TemporaryDirectory() as td:
            cache = PlanCache(Path(td) / "plans.json")
            cache.put(n, n, n, dtype, 1, STRASSEN)
            got = batched.matmul_batched(A, B, threads=1, cache=cache)
            want = looped_matmul(A, B, 1, cache)
        for i in range(batch):
            np.testing.assert_array_equal(got[i], want[i])

    def test_mixed_dtype_stack(self, cache):
        """float32 @ float64 products are float64, as a single call's."""
        cache.put(192, 192, 192, "float64", 1, STRASSEN)
        A, B = batch_operands(192, 192, 192, 3, seed=9)
        A = A.astype(np.float32)
        got = batched.matmul_batched(A, B, threads=1, cache=cache)
        want = looped_matmul(A, B, 1, cache)
        assert got.dtype == np.float64
        for i in range(3):
            np.testing.assert_array_equal(got[i], want[i])

    def test_rectangular_shapes(self, cache):
        cache.put(160, 192, 176, "float64", 1, STRASSEN)
        A, B = batch_operands(160, 192, 176, 3, seed=3)
        got = batched.matmul_batched(A, B, threads=1, cache=cache)
        want = looped_matmul(A, B, 1, cache)
        assert got.shape == (3, 160, 176)
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

    @pytest.mark.parametrize("tune", ["online", "elementwise", None])
    def test_unknown_tune_raises_the_matmul_error(self, tune, cache):
        A, B = batch_operands(16, 16, 16, 2)
        with pytest.raises(ValueError, match="tune must be one of") as got:
            batched.matmul_batched(A, B, threads=1, cache=cache, tune=tune)
        with pytest.raises(ValueError) as want:
            dispatch.matmul(A[0], B[0], threads=1, cache=cache, tune=tune)
        assert str(got.value) == str(want.value)

    def test_threads_zero_raises(self, cache):
        A, B = batch_operands(16, 16, 16, 2)
        with pytest.raises(ValueError, match="threads"):
            batched.matmul_batched(A, B, threads=0, cache=cache)


# =========================================================================
# amortization: one plan, one arena, one span per batch
# =========================================================================
class TestAmortization:
    def test_warm_batch_is_one_decision(self, cache):
        """The telemetry ledger of a warm batched call: one call, one
        source increment, one lookup span and one batch span -- and the
        calling thread's arena reserved once for the whole batch, grown
        never.  ``n=160`` sits above the trivial boundary so the plan is a
        fast one with a real arena behind it."""
        n, batch = 160, 6
        cache.put(n, n, n, "float64", 1, STRASSEN)
        A, B = batch_operands(n, n, n, batch, seed=1)
        out = np.empty((batch, n, n))
        telemetry.enable()
        batched.matmul_batched(A, B, out=out, threads=1, cache=cache)
        arena = dispatch._arenas[threading.current_thread()]
        uses = arena.uses
        telemetry.reset()
        batched.matmul_batched(A, B, out=out, threads=1, cache=cache)
        assert arena.uses == uses + 1
        assert telemetry.counter_value("dispatch.calls") == 1
        assert telemetry.counter_value("dispatch.source",
                                       source="cache") == 1
        assert telemetry.counter_value("workspace.grows") == 0
        assert telemetry.span_stats("dispatch.lookup")["count"] == 1
        stats = telemetry.span_stats("dispatch.batch", scheme="sequential")
        assert stats is not None and stats["count"] == 1
        (rec,) = telemetry.dispatch_records()
        assert rec["batch"] == batch and rec["source"] == "cache"
        assert rec["arena_bytes"] == dispatch.plan_footprint(
            STRASSEN, n, n, n, "float64", "float64")
        assert rec["arena_overflows"] == 0

    def test_compiled_plan_fits_its_arena(self, cache):
        """The reservation follows the kernel rule: sized for the
        interpreter, every warm compiled element would overflow."""
        from repro.codegen import cbackend
        from repro.core.stability import error_bound

        if not cbackend.available():
            pytest.skip("no C compiler")
        n, batch = 256, 8
        cache.put(n, n, n, "float64", 1,
                  Plan(algorithm="strassen", steps=1, threads=1))
        A, B = batch_operands(n, n, n, batch, seed=5)
        telemetry.enable()
        for _ in range(3):
            C = batched.matmul_batched(A, B, threads=1, cache=cache)
        assert telemetry.counter_value("workspace.overflows") == 0
        assert all(0 == rec["arena_overflows"] < rec["arena_high_water"]
                   for rec in telemetry.dispatch_records())
        exact = np.matmul(A, B)
        rel = np.linalg.norm(C - exact) / np.linalg.norm(exact)
        assert rel <= error_bound(get_algorithm("strassen"), 1, n, "float64")

    @pytest.mark.parametrize("plan", [
        STRASSEN, Plan(algorithm="strassen", steps=1, scheme="dfs",
                       threads=2)], ids=lambda p: p.describe())
    def test_warm_batch_is_allocation_free(self, plan, cache):
        """With ``out=``, a warm batched call stays under the per-call
        byte budget for the *whole batch* -- the headline amortization."""
        n, batch = 128, 8
        cache.put(n, n, n, "float64", plan.threads, plan)
        A, B = batch_operands(n, n, n, batch, seed=4)
        out = np.empty((batch, n, n))
        batched.matmul_batched(A, B, out=out, threads=plan.threads,
                               cache=cache)  # warm arena + pool
        with track_allocations() as rep:
            batched.matmul_batched(A, B, out=out, threads=plan.threads,
                                   cache=cache)
        assert rep.peak_bytes is not None and rep.peak_bytes < LARGE
        np.testing.assert_allclose(out, np.matmul(A, B), atol=1e-8 * n)

    def test_warm_batch_surfaces_arena_overflow(self, cache, monkeypatch,
                                                caplog):
        """An undersized reservation is counted, every overflow of every
        element, and warned about once per (plan, shape, dtype), like a
        per-call one; a measurement outside the serving tail reports
        nothing."""
        n, batch = 256, 4
        cache.put(n, n, n, "float64", 1, STRASSEN)
        monkeypatch.setattr(dispatch, "plan_footprint",
                            lambda plan, *a: 0 if plan.is_dgemm else 64)
        A, B = batch_operands(n, n, n, batch, seed=6)
        probe = Workspace(64)  # what one element spills past 64 bytes
        dispatch.execute_plan(STRASSEN, A[0], B[0], workspace=probe)
        assert probe.overflow_allocations > 0
        telemetry.enable()
        with caplog.at_level(logging.WARNING, logger=dispatch.__name__):
            measure.measure_plan(STRASSEN, A[0], B[0], trials=1)
            assert telemetry.counter_value("workspace.overflows") == 0
            for _ in range(2):
                batched.matmul_batched(A, B, threads=1, cache=cache)
        assert (telemetry.counter_value("workspace.overflows")
                == 2 * batch * probe.overflow_allocations)
        assert telemetry.dispatch_records()[-1]["arena_overflows"] > 0
        warned = [rec for rec in caplog.records
                  if "workspace arena overflowed" in rec.message]
        assert len(warned) == 1


# =========================================================================
# resolution: the per-call ladder, once per batch
# =========================================================================
class TestResolution:
    @pytest.mark.parametrize("stage", ["trivial", "cache", "nearest",
                                       "model"])
    def test_get_batch_plan_is_get_plan(self, stage, cache):
        n = 64 if stage == "trivial" else 192
        if stage == "cache":
            cache.put(n, n, n, "float64", 1, STRASSEN)
        elif stage == "nearest":
            cache.put(n + 16, n, n, "float64", 1, STRASSEN)
        plan, source = dispatch.get_plan(n, n, n, threads=1, cache=cache)
        assert source == stage
        assert batched.get_batch_plan(n, n, n, 7, threads=1,
                                      cache=cache) == (BatchPlan(plan, 7),
                                                       source)
        assert BatchPlan(plan, 7).describe() == f"7 x {plan.describe()}"

    def test_batch_must_be_positive(self, cache):
        with pytest.raises(ValueError, match="batch"):
            batched.get_batch_plan(64, 64, 64, 0, threads=1, cache=cache)

    def test_a_tuned_shape_serves_its_batches(self, cache):
        """``tune`` writes the per-call key; the batch reads it."""
        n = 192
        (report,) = measure.tune([(n, n, n)], threads=1, cache=cache,
                                 budget_s=5.0, trials=1, max_candidates=2,
                                 persist=False)
        A, B = batch_operands(n, n, n, 3, seed=2)
        telemetry.enable()
        batched.matmul_batched(A, B, threads=1, cache=cache)
        (rec,) = telemetry.dispatch_records()
        assert rec["source"] == "cache"
        assert rec["plan"] == report.best.plan.describe()


# =========================================================================
# the plan cache holds per-call keys only
# =========================================================================
def test_old_batched_keys_are_dropped_on_load(cache, tmp_path):
    """A batch-suffixed key in a current-schema file (written by an older
    release) is not an entry: it is dropped on load, the per-call entries
    beside it still serve, and the next save leaves it out."""
    cache.put(64, 64, 64, "float64", 1, STRASSEN)
    assert cache.save()
    path = tmp_path / "plans.json"
    raw = json.loads(path.read_text())
    key = problem_key(64, 64, 64, "float64", 1)
    raw["entries"][f"{key}:b8"] = dict(raw["entries"][key], batch="within",
                                       workers=1)
    path.write_text(json.dumps(raw))

    reloaded = PlanCache(path)
    assert reloaded.keys() == [key]
    assert reloaded.get(64, 64, 64, "float64", 1) == STRASSEN
    assert reloaded.save()
    assert list(json.loads(path.read_text())["entries"]) == [key]
