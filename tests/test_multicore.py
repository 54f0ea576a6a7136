"""Multi-core acceptance tests for parallel-plan tuning (ISSUE 5).

Two acceptance criteria live here, both requiring a real >= 4-thread
budget (the ``multicore`` CI tier):

1. ``repro tune --policy ucb`` on a 4-thread problem produces a cached
   hybrid plan with an *explicit* P' field -- asserted end-to-end through
   the actual CLI with a scripted timing oracle (the fake clock makes a
   hybrid-subgroup candidate the true winner, so the assertion is exact,
   not a bet on runner hardware), plus an unscripted CLI smoke run;
2. a cold cache primed at ``threads=2`` serves a penalized-but-valid
   transfer plan at ``threads=4`` -- ``nearest()`` crosses thread counts,
   retargets the plan, and dispatch executes it correctly.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import FakeClock, run_cli

from repro import tuner
from repro.tuner import dispatch
from repro.tuner.cache import PlanCache
from repro.tuner.space import Plan

pytestmark = pytest.mark.multicore

THREADS = 4


class TestTuneUcbProducesSubgroupPlan:
    """Acceptance criterion 1: the CLI's UCB path caches a hybrid plan
    whose P' is an explicit field, at threads=4."""

    def _script_subgroup_winner(self, monkeypatch, p, q, r, candidates):
        """Fake the execution clock so the best-ranked hybrid-subgroup
        candidate of the shortlist is the measured winner."""
        shortlist = tuner.enumerate_plans(p, q, r, threads=THREADS,
                                          max_candidates=candidates)
        winners = [pl for pl in shortlist
                   if pl.scheme == "hybrid-subgroup"
                   and pl.subgroup is not None]
        # the P' sub-space must reach the shortlist at all (the SCHEMES[:3]
        # bug silently kept it out of *every* parallel shortlist)
        assert winners, [pl.describe() for pl in shortlist]
        target = winners[0]
        costs = {pl.describe(): 2.0 + i for i, pl in enumerate(shortlist)}
        costs[target.describe()] = 0.5
        clock = FakeClock()

        def fake_execute(plan, A, B, pool=None, out=None, workspace=None):
            clock.advance(costs.get(plan.describe(), 5.0))
            return A @ B

        monkeypatch.setattr(dispatch, "execute_plan", fake_execute)

        class ScriptedUCB(tuner.UCBTunePolicy):
            def __init__(self, **kw):
                kw["clock"] = clock.now
                super().__init__(**kw)

        monkeypatch.setattr(tuner, "UCBTunePolicy", ScriptedUCB)
        return target

    def test_cli_ucb_caches_hybrid_plan_with_explicit_pprime(
            self, monkeypatch, tmp_path):
        p = q = r = 768
        candidates = 8
        target = self._script_subgroup_winner(monkeypatch, p, q, r,
                                              candidates)
        path = tmp_path / "plans.json"
        rc, text = run_cli(
            "tune", "--policy", "ucb", "--shapes", f"{p}x{q}x{r}",
            "--threads", str(THREADS), "--candidates", str(candidates),
            "--dispatches", "32", "--cache", str(path),
        )
        assert rc == 0
        assert "converged" in text
        cache = PlanCache(path)
        plan = cache.get(p, q, r, "float64", THREADS)
        assert plan == target
        assert plan.scheme == "hybrid-subgroup"
        assert isinstance(plan.subgroup, int)          # explicit P', not None
        assert THREADS % plan.subgroup == 0
        # the entry's parallel configuration is first-class, not buried in
        # the plan dict
        ent = cache.entry(p, q, r, "float64", THREADS)
        assert ent["scheme"] == "hybrid-subgroup"
        assert ent["subgroup"] == plan.subgroup
        # ... and cache show renders it
        rc, text = run_cli("cache", "show", "--cache", str(path))
        assert rc == 0
        assert "hybrid-subgroup" in text
        assert f"P'={plan.subgroup}" in text

    def test_cli_ucb_real_timings_smoke(self, tmp_path):
        """Unscripted: the full CLI path converges on real 4-thread
        timings and every cached entry carries the explicit P' field
        (whatever plan actually won on this machine)."""
        path = tmp_path / "plans.json"
        rc, text = run_cli(
            "tune", "--policy", "ucb", "--shapes", "256", "--threads",
            str(THREADS), "--candidates", "3", "--dispatches", "12",
            "--cache", str(path),
        )
        assert rc == 0
        cache = PlanCache(path)
        ent = cache.entry(256, 256, 256, "float64", THREADS)
        if ent is not None:  # still exploring after the budget is legal
            assert "subgroup" in ent
            assert "subgroup" in ent["plan"]


class TestCrossThreadTransfer:
    """Acceptance criterion 2: thread-count transfer in the plan cache."""

    def test_cache_primed_at_2_serves_4(self, tmp_path):
        n = 192
        cache = PlanCache(tmp_path / "plans.json")
        tuned = Plan(algorithm="strassen", steps=1, scheme="hybrid-subgroup",
                     threads=2, subgroup=1)
        cache.put(n, n, n, "float64", 2, tuned)

        # cold at threads=4: no exact hit, the cross-thread fallback kicks in
        assert cache.get(n, n, n, "float64", 4) is None
        plan, source = tuner.get_plan(n, n, n, dtype="float64", threads=4,
                                      cache=cache)
        assert source == "transfer"
        assert plan.threads == 4                       # retargeted
        assert plan.algorithm == tuned.algorithm       # knowledge transferred
        assert plan.steps == tuned.steps
        assert plan.scheme == tuned.scheme
        assert plan.subgroup is not None
        assert 4 % plan.subgroup == 0                  # valid at 4 threads

        # ... and the transfer plan actually executes at 4 threads
        rng = np.random.default_rng(5)
        A = rng.random((n, n))
        B = rng.random((n, n))
        tuner.reset_workspaces()
        C = tuner.matmul(A, B, threads=4, cache=cache)
        np.testing.assert_allclose(C, A @ B, atol=1e-9)
        tuner.reset_workspaces()

    def test_exact_hit_beats_transfer_at_dispatch(self, tmp_path):
        """Once the shape *is* tuned at 4 threads, the cross-thread
        transfer stops being consulted."""
        n = 192
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(n, n, n, "float64", 2,
                  Plan(algorithm="strassen", steps=1, scheme="bfs",
                       threads=2))
        exact = Plan(algorithm="winograd", steps=1, scheme="hybrid",
                     threads=4)
        cache.put(n, n, n, "float64", 4, exact)
        plan, source = tuner.get_plan(n, n, n, dtype="float64", threads=4,
                                      cache=cache)
        assert (plan, source) == (exact, "cache")
