"""repro.guard: fault injection, the fallback chain, and the chaos tier.

The chaos-marked tests are the resilience contract of PR 8: with faults
injected at every named point, ``repro.matmul(guard=...)`` and
``repro.matmul_batched(guard=...)`` still return a product bit-equal to
``np.matmul`` (the chain bottoms out at classical, which shares numpy's
kernel), quarantine counters advance, and the substrate (pools, arenas,
cache files) is repaired rather than left broken.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_cc, run_cli
from repro import obs
from repro.guard import chain, faults
from repro.guard.chain import (
    GUARD_DEFAULT,
    GuardConfig,
    WatchdogTimeout,
    check_product,
    resolve_guard,
)
from repro.parallel.pool import (
    PoolBrokenError,
    TaskTimeoutError,
    WorkerPool,
)
from repro.tuner import PlanCache, dispatch, matmul, matmul_batched
from repro.tuner.space import Plan


@pytest.fixture(autouse=True)
def _clean_guard_state():
    """Every test starts and ends disarmed, unguarded, and unobserved."""
    faults.clear()
    faults.reset_fired()
    chain.reset_default_guard()
    obs.disable()
    obs.reset()
    dispatch.reset_workspaces()
    yield
    faults.clear()
    faults.reset_fired()
    chain.reset_default_guard()
    chain.shutdown_watchdog()
    obs.disable()
    obs.reset()
    dispatch.reset_workspaces()


def _operands(n: int, dtype: str = "float64", seed: int = 0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)).astype(dtype)
    B = rng.standard_normal((n, n)).astype(dtype)
    return A, B


def _cache_with(n: int, threads: int, plan: Plan,
                tmp_path=None) -> PlanCache:
    path = (tmp_path / "plans.json" if tmp_path is not None
            else "/nonexistent/guard_plans.json")
    cache = PlanCache(path)
    cache.put(n, n, n, "float64", threads, plan, seconds=0.01, gflops=1.0)
    return cache


# ---------------------------------------------------------------- faults
def test_fault_spec_rejects_unknown_point():
    with pytest.raises(ValueError, match="unknown fault point"):
        faults.arm("no.such.point")
    assert not faults.active


def test_fault_spec_rejects_bad_count():
    with pytest.raises(ValueError):
        faults.arm("plan.raise:0")


def test_inject_arms_and_clears():
    assert not faults.active
    with faults.inject("plan.raise:2"):
        assert faults.active
        assert faults.should_fire("plan.raise")
        assert faults.should_fire("plan.raise")
        # bounded count: spent after two firings
        assert not faults.should_fire("plan.raise")
        # a point never armed does not fire
        assert not faults.should_fire("apa.nan")
    assert not faults.active
    assert faults.fired("plan.raise") == 2


def test_should_fire_is_inert_when_disarmed():
    assert not faults.should_fire("plan.raise")
    assert faults.fired() == {}


def test_install_from_env_parses_and_rejects():
    assert not faults.install_from_env("")
    assert faults.install_from_env("worker.die,plan.raise:3")
    assert faults.active
    assert faults.should_fire("worker.die")
    faults.clear()
    with pytest.raises(ValueError):
        faults.install_from_env("plan.raise,typo.point")


# ---------------------------------------------------------- resolve_guard
def test_resolve_guard_spellings():
    assert resolve_guard(True) is GUARD_DEFAULT
    assert resolve_guard(False) is None
    assert resolve_guard("on") is GUARD_DEFAULT
    assert resolve_guard("off") is None
    assert resolve_guard(2.5) == GuardConfig(timeout_s=2.5)
    cfg = GuardConfig(timeout_s=7.0, sample_rows=2)
    assert resolve_guard(cfg) is cfg
    with pytest.raises(ValueError):
        resolve_guard("not-a-guard")
    with pytest.raises(ValueError):
        resolve_guard(object())


def test_repro_guard_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_GUARD", "1")
    chain.reset_default_guard()
    assert resolve_guard(None) is GUARD_DEFAULT
    monkeypatch.setenv("REPRO_GUARD", "off")
    chain.reset_default_guard()
    assert resolve_guard(None) is None
    monkeypatch.setenv("REPRO_GUARD", "1.5")
    chain.reset_default_guard()
    assert resolve_guard(None) == GuardConfig(timeout_s=1.5)
    # guard=False beats an enabling environment
    monkeypatch.setenv("REPRO_GUARD", "1")
    chain.reset_default_guard()
    assert resolve_guard(False) is None


# ---------------------------------------------------------- check_product
def test_check_product_accepts_healthy_exact():
    A, B = _operands(24)
    C = A @ B
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    assert check_product(plan, A, B, C, GUARD_DEFAULT) is None


def test_check_product_flags_nonfinite():
    A, B = _operands(24)
    C = A @ B
    C[0, 0] = np.nan
    plan = Plan(threads=1)  # even dgemm products get the finiteness scan
    reason = check_product(plan, A, B, C, GUARD_DEFAULT)
    assert reason is not None and "non-finite" in reason


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
@pytest.mark.parametrize("dtype", (np.float64, np.float32, np.complex128))
def test_check_product_scans_every_sampled_row(bad, dtype):
    """The first, the last and the rows between are sampled, for every
    inexact dtype; huge finite values are not mistaken for overflow."""
    plan = Plan(threads=1)
    C = np.full((24, 9), np.finfo(dtype).max / 2, dtype=dtype)
    assert check_product(plan, None, None, C, GUARD_DEFAULT) is None
    for row in (0, 7, 23):
        D = C.copy()
        D[row, 8] = bad
        reason = check_product(plan, None, None, D, GUARD_DEFAULT)
        assert reason is not None and "non-finite" in reason, row


@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name,steps", [("bini322", 1), ("bini322", 2),
                                        ("schonhage333", 1)])
def test_check_product_apa_residual(name, steps, dtype):
    """The tolerance is ``error_bound``, the entry's residual included: a
    healthy APA product passes (every ``schonhage333`` one used to be
    refused), the same product 5 % noisy or scaled by 1.08 does not (a
    0.1 floor used to let both through)."""
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (144, 96)).astype(dtype)
    B = rng.uniform(-1, 1, (96, 96)).astype(dtype)
    plan = Plan(algorithm=name, steps=steps, threads=1)
    C = dispatch.execute_plan(plan, A, B)
    assert check_product(plan, A, B, C, GUARD_DEFAULT) is None
    if (name, steps, dtype) == ("bini322", 1, "float64"):
        for bad in (C * (1 + 0.05 * rng.standard_normal(C.shape)), C * 1.08):
            reason = check_product(plan, A, B, bad, GUARD_DEFAULT)
            assert reason is not None and "residual" in reason


# -------------------------------------------------------------- watchdog
def test_watchdog_passes_through_fast_calls():
    assert chain._watchdog_run(lambda: 41 + 1, timeout_s=5.0) == 42


def test_watchdog_times_out_slow_calls():
    import threading

    release = threading.Event()
    try:
        with pytest.raises(WatchdogTimeout):
            chain._watchdog_run(lambda: release.wait(10), timeout_s=0.2)
    finally:
        release.set()


# ----------------------------------------------------- quarantine ledger
def test_quarantine_after_threshold_and_probe_backoff():
    cache = PlanCache("/nonexistent/q.json")
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    assert not cache.record_failure(64, 64, 64, "float64", 1, plan, "e1")
    assert not cache.plan_quarantined(64, 64, 64, "float64", 1, plan)
    assert cache.record_failure(64, 64, 64, "float64", 1, plan, "e2")
    skips = [cache.plan_quarantined(64, 64, 64, "float64", 1, plan)
             for _ in range(32)]
    # every QUARANTINE_PROBE_EVERY-th lookup lets the plan through once
    assert skips.count(False) == 2
    assert cache.quarantined_keys()
    cache.record_success(64, 64, 64, "float64", 1, plan)
    assert not cache.quarantined_keys()
    assert not cache.plan_quarantined(64, 64, 64, "float64", 1, plan)


def test_quarantined_plan_skipped_by_resolution(tmp_path):
    """The store keeps the entry; dispatch's resolution skips its plan."""
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    cache = _cache_with(192, 1, plan, tmp_path)
    assert dispatch.get_plan(192, 192, 192, threads=1,
                             cache=cache) == (plan, "cache")
    for _ in range(2):
        cache.record_failure(192, 192, 192, "float64", 1, plan, "boom")
    assert cache.get(192, 192, 192, "float64", 1) == plan
    got, source = dispatch.get_plan(192, 192, 192, threads=1, cache=cache)
    assert source == "model" and got != plan


def test_quarantined_entry_probes_every_16th_lookup(tmp_path):
    """One lookup charges a quarantined plan's ledger once, however many
    resolution stages could propose it, so the backoff probe serves the
    cached plan exactly at the 16th, 32nd and 48th lookup."""
    n = 512
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    cache = _cache_with(n, 1, plan, tmp_path)
    for _ in range(2):
        cache.record_failure(n, n, n, "float64", 1, plan, "boom")
    obs.enable()
    served = [dispatch.get_plan(n, n, n, threads=1, cache=cache)
              for _ in range(48)]
    probes = [i for i, hit in enumerate(served, 1) if hit == (plan, "cache")]
    assert probes == [16, 32, 48]
    assert obs.counter_value("guard.quarantine_skips") == 45
    assert obs.counter_value("guard.quarantine_probes") == 3


def test_quarantine_probes_keep_their_cadence_with_the_memo_warm(tmp_path):
    """The store memoises its answer, not the ledger's: a plan served
    from the warm memo is still charged once per lookup, so it is skipped
    from the next lookup on and probed at the 16th, 32nd and 48th."""
    n = 512
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    cache = _cache_with(n, 1, plan, tmp_path)
    for _ in range(3):  # warm: every stage's answer is memoised
        assert dispatch.get_plan(n, n, n, threads=1,
                                 cache=cache) == (plan, "cache")
    for _ in range(2):
        cache.record_failure(n, n, n, "float64", 1, plan, "boom")
    served = [dispatch.get_plan(n, n, n, threads=1, cache=cache)
              for _ in range(48)]
    probes = [i for i, hit in enumerate(served, 1) if hit == (plan, "cache")]
    assert probes == [16, 32, 48]
    assert all(source == "model" for i, (_, source) in
               enumerate(served, 1) if i not in probes)


def test_failure_ledger_survives_save_load(tmp_path):
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    cache = _cache_with(96, 1, plan, tmp_path)
    for _ in range(2):
        cache.record_failure(96, 96, 96, "float64", 1, plan, "boom")
    assert cache.save()
    reloaded = PlanCache(tmp_path / "plans.json")
    assert reloaded.quarantined_keys() == cache.quarantined_keys()
    assert reloaded.plan_quarantined(96, 96, 96, "float64", 1, plan)


# ------------------------------------------------------------ chaos tier
@pytest.mark.chaos
def test_plan_raise_falls_back_bit_equal():
    A, B = _operands(96)
    with faults.inject("plan.raise"):
        C = matmul(A, B, threads=1, guard=True)
    assert np.array_equal(C, np.matmul(A, B))
    assert faults.fired("plan.raise") >= 1


@pytest.mark.chaos
def test_plan_raise_quarantines_after_repeats(tmp_path):
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    cache = _cache_with(192, 1, plan, tmp_path)
    A, B = _operands(192)
    ref = np.matmul(A, B)
    with faults.inject("plan.raise"):
        for _ in range(2):
            assert np.array_equal(
                matmul(A, B, threads=1, cache=cache, guard=True), ref)
    assert any("strassen" in k for k in cache.quarantined_keys())
    # quarantined: the next resolve skips the bad plan even unguarded
    got, source = dispatch.get_plan(192, 192, 192, dtype="float64",
                                    threads=1, cache=cache)
    assert got != plan


@pytest.mark.chaos
def test_single_fault_recovers_through_model_stage(tmp_path):
    """One-shot failure: stage 2 (cost-model plan) produces the result."""
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    cache = _cache_with(192, 1, plan, tmp_path)
    A, B = _operands(192)
    ref = np.matmul(A, B)
    with faults.inject("plan.raise:1"):
        C = matmul(A, B, threads=1, cache=cache, guard=True)
    # the model-stage plan is a fast (exact) algorithm, not classical:
    # numerically indistinguishable, not necessarily bit-equal
    assert np.allclose(C, ref, atol=1e-8 * np.abs(ref).max())


@pytest.mark.chaos
def test_workspace_overflow_degrades_to_classical(tmp_path):
    plan = Plan(algorithm="strassen", steps=2, scheme="sequential",
                threads=1)
    cache = _cache_with(192, 1, plan, tmp_path)
    A, B = _operands(192)
    with faults.inject("workspace.overflow"):
        C = matmul(A, B, threads=1, cache=cache, guard=True)
    assert np.array_equal(C, np.matmul(A, B))
    assert faults.fired("workspace.overflow") >= 1


@needs_cc
@pytest.mark.chaos
def test_worker_die_degrades_to_classical(tmp_path):
    plan = Plan(algorithm="strassen", steps=1, scheme="bfs", threads=2)
    cache = _cache_with(192, 2, plan, tmp_path)
    A, B = _operands(192)
    with faults.inject("worker.die"):
        C = matmul(A, B, threads=2, cache=cache, guard=True)
    assert np.array_equal(C, np.matmul(A, B))


@needs_cc
@pytest.mark.chaos
def test_worker_hang_watchdog_rebuilds_pool(tmp_path):
    plan = Plan(algorithm="strassen", steps=1, scheme="bfs", threads=2)
    cache = _cache_with(192, 2, plan, tmp_path)
    A, B = _operands(192)
    before = dispatch._shared_pool(2)
    with faults.inject("worker.hang", hang_seconds=8.0):
        C = matmul(A, B, threads=2, cache=cache,
                   guard=GuardConfig(timeout_s=0.75))
    assert np.array_equal(C, np.matmul(A, B))
    # the infrastructure failure tore down and replaced the shared pool
    assert dispatch._shared_pool(2) is not before


@pytest.mark.chaos
def test_apa_nan_is_caught_and_survived(tmp_path):
    plan = Plan(algorithm="bini322", steps=1, threads=1)
    cache = _cache_with(192, 1, plan, tmp_path)
    A, B = _operands(192)
    obs.enable()
    with faults.inject("apa.nan"):
        C = matmul(A, B, threads=1, cache=cache, guard=True)
    obs.disable()
    # persistent poisoning: every fast attempt is rejected by the
    # numerical guardrail and the chain lands on classical
    assert np.array_equal(C, np.matmul(A, B))
    guard = obs.summarize()["guard"]
    assert guard["numeric_violations"] >= 1


@pytest.mark.chaos
def test_guard_off_lets_faults_propagate():
    A, B = _operands(96)
    with faults.inject("plan.raise"):
        with pytest.raises(faults.InjectedFault):
            matmul(A, B, threads=1, guard=False)


@pytest.mark.chaos
def test_batched_guard_bit_equal_under_faults():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 64, 64))
    B = rng.standard_normal((4, 64, 64))
    with faults.inject("plan.raise"):
        C = matmul_batched(A, B, threads=1, guard=True)
    assert np.array_equal(C, np.matmul(A, B))


@pytest.mark.chaos
@pytest.mark.parametrize("timeout_s", [None, 30.0],
                         ids=["inline", "watchdog"])
@pytest.mark.parametrize("form", ["stacked", "list"])
def test_batch_recovers_through_model_stage(form, timeout_s, tmp_path):
    """A batch walks the per-call ladder: a one-shot failure of its plan
    is answered by the cost model's next plan over every element, into
    the caller's ``out`` (through a private destination under the
    watchdog), not by classical."""
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    cache = _cache_with(192, 1, plan, tmp_path)
    A, B = _operands(192)
    Abatch, Bbatch = np.stack([A] * 3), np.stack([B] * 3)
    ref = np.matmul(Abatch, Bbatch)
    out = np.empty_like(ref)
    if form == "list":
        Abatch, Bbatch, out = list(Abatch), list(Bbatch), list(out)
    fallback = chain._fallback_plan(plan, 192, 192, 192, "float64", 1, cache)
    obs.enable()
    with faults.inject("plan.raise:1"):
        C = matmul_batched(Abatch, Bbatch, out=out, threads=1, cache=cache,
                           guard=GuardConfig(timeout_s=timeout_s))
    assert C is out
    assert np.allclose(np.stack(C), ref, atol=1e-8 * np.abs(ref).max())
    assert obs.counter_value("guard.fallbacks", stage="model") == 1
    assert obs.counter_value("guard.fallbacks", stage="classical") == 0
    (rec,) = obs.dispatch_records()
    assert (rec["source"], rec["plan"], rec["batch"]) == (
        "guard", fallback.describe(), 3)


@pytest.mark.chaos
def test_batch_failures_quarantine_the_shape_plan(tmp_path):
    """A batch runs its shape's per-call plan, so a failing batch charges
    the shape's per-call ledger key: after two failing guarded batches the
    plan is quarantined, and the next batch and the next single call both
    resolve past it.  (A batch used to charge a batch-only key that no
    resolution read, so the failing plan was retried by every batch.)"""
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    cache = _cache_with(192, 1, plan, tmp_path)
    A, B = _operands(192)
    Abatch, Bbatch = np.stack([A] * 3), np.stack([B] * 3)
    ref = np.matmul(Abatch, Bbatch)
    with faults.inject("plan.raise"):
        for _ in range(2):
            assert np.array_equal(
                matmul_batched(Abatch, Bbatch, threads=1, cache=cache,
                               guard=True), ref)
    assert (f"192x192x192:float64:1t|{plan.describe()}"
            in cache.quarantined_keys())
    got, source = dispatch.get_plan(192, 192, 192, threads=1, cache=cache)
    assert source == "model" and got != plan
    obs.enable()
    C = matmul_batched(Abatch, Bbatch, threads=1, cache=cache, guard=True)
    assert np.allclose(C, ref, atol=1e-8 * np.abs(ref).max())
    (rec,) = obs.dispatch_records()
    assert rec["source"] == "model" and rec["plan"] == got.describe()
    assert obs.summarize()["guard"]["plan_failures"] == 0


@pytest.mark.chaos
def test_fault_storm_everything_still_correct(tmp_path):
    """All six points armed at once; both entry points stay bit-equal and
    the counters tell the story in `repro stats`."""
    path = tmp_path / "plans.json"
    seeded = PlanCache(path)
    seeded.put(192, 192, 192, "float64", 2,
               Plan(algorithm="strassen", steps=1, scheme="bfs", threads=2),
               seconds=0.01, gflops=1.0)
    assert seeded.save()

    A, B = _operands(192)
    Abatch = np.stack([A] * 3)
    Bbatch = np.stack([B] * 3)
    obs.enable()
    with faults.inject("plan.raise", "apa.nan", "worker.hang",
                       "worker.die", "workspace.overflow", "cache.corrupt",
                       hang_seconds=6.0):
        cache = PlanCache(path)  # load trips cache.corrupt -> sidecar
        C = matmul(A, B, threads=2, cache=cache,
                   guard=GuardConfig(timeout_s=2.0))
        Cb = matmul_batched(Abatch, Bbatch, threads=2, cache=cache,
                            guard=GuardConfig(timeout_s=2.0))
    assert np.array_equal(C, np.matmul(A, B))
    assert np.array_equal(Cb, np.matmul(Abatch, Bbatch))
    assert cache.load_error is not None  # the corrupt load was survived
    guard = obs.summarize()["guard"]
    assert sum(guard["fallbacks"].values()) >= 2
    assert guard["cache_load_errors"] >= 1
    rc, out = run_cli("stats")
    obs.disable()
    assert rc == 0
    assert "guard: fallbacks" in out
    assert "injected faults fired" in out


@pytest.mark.chaos
@settings(max_examples=8)
@given(dtype=st.sampled_from(["float32", "float64"]),
       n=st.integers(min_value=4, max_value=48),
       seed=st.integers(min_value=0, max_value=2**16))
def test_guard_fallback_bit_exact_property(dtype, n, seed):
    """Under a persistent plan failure the guarded product is bit-equal
    to np.matmul for every dtype/shape/seed."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)).astype(dtype)
    B = rng.standard_normal((n, n)).astype(dtype)
    try:
        with faults.inject("plan.raise"):
            C = matmul(A, B, threads=1, guard=True)
    finally:
        faults.clear()
    assert C.dtype == np.result_type(A, B)
    assert np.array_equal(C, np.matmul(A, B))


# ------------------------------------------- the serving tail under guard
@needs_cc
@pytest.mark.parametrize("observed", [False, True])
def test_guarded_warm_call_surfaces_arena_overflow(observed, monkeypatch,
                                                   caplog):
    """A guarded call takes its arena and reports through the same tail
    as an unguarded one: an undersized warm arena is counted and warned
    about once (guarded calls used to overflow silently)."""
    from repro.algorithms import get_algorithm
    from repro.core.stability import error_bound

    n = 256
    cache = _cache_with(n, 1, Plan("strassen", steps=1, threads=1))
    monkeypatch.setattr(dispatch, "plan_footprint",
                        lambda plan, *a: 0 if plan.is_dgemm else 64)
    A, B = _operands(n)
    C = np.empty((n, n))
    if observed:
        obs.enable()
    with caplog.at_level(logging.WARNING, logger=dispatch.__name__):
        for _ in range(2):
            matmul(A, B, out=C, threads=1, cache=cache, guard=True)
    warned = [rec for rec in caplog.records
              if "workspace arena overflowed" in rec.message]
    assert len(warned) == 1
    if observed:
        assert obs.counter_value("workspace.overflows") > 0
    exact = A @ B
    assert (np.linalg.norm(C - exact) / np.linalg.norm(exact)
            <= error_bound(get_algorithm("strassen"), 1, n, "float64"))


# ------------------------------------------------------- pool supervision
def test_map_wait_times_out_on_hung_worker():
    pool = WorkerPool(2)
    try:
        with faults.inject("worker.hang", hang_seconds=6.0):
            with pytest.raises(TaskTimeoutError):
                pool.map_wait(lambda x: x, [1, 2, 3], timeout=0.5)
    finally:
        faults.clear()
        pool.shutdown(wait=False)


def test_map_wait_raises_on_dead_pool():
    pool = WorkerPool(2)
    try:
        with faults.inject("worker.die"):
            with pytest.raises(PoolBrokenError):
                pool.map_wait(lambda x: x, [1, 2, 3])
        assert pool.broken
    finally:
        faults.clear()
        pool.shutdown(wait=False)


def test_map_wait_retries_idempotent_tasks():
    pool = WorkerPool(2)
    state = {"failed": False}

    def flaky(x):
        if not state["failed"]:
            state["failed"] = True
            raise RuntimeError("transient")
        return x * 2

    try:
        out = pool.map_wait(flaky, [21], retryable=True)
        assert out == [42]
    finally:
        pool.shutdown(wait=False)


def test_shutdown_pool_is_broken():
    pool = WorkerPool(2)
    pool.shutdown(wait=True)
    assert pool.broken
    with pytest.raises(PoolBrokenError):
        pool.submit(lambda: None)
