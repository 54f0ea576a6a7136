"""Multi-core acceptance tests for parallel-plan tuning.

Two acceptance criteria live here, both requiring a real >= 4-thread
budget (the ``multicore`` CI tier):

1. offline ``repro tune`` on a 4-thread problem caches a hybrid-subgroup
   plan with an *explicit* P' field -- asserted end-to-end through the
   actual CLI with a scripted timing oracle (a fake measurement clock
   makes a hybrid-subgroup candidate the true winner, so the assertion is
   exact, not a bet on runner hardware);
2. a plan cached at ``threads=2`` never answers a ``threads=4`` query:
   the shape resolves to the cost model, and dispatch executes that plan
   correctly at 4 threads.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import FakeClock, run_cli

from repro import tuner
from repro.algorithms import get_algorithm
from repro.core.stability import error_bound
from repro.tuner import dispatch, measure
from repro.tuner.cache import PlanCache
from repro.tuner.space import Plan

pytestmark = pytest.mark.multicore

THREADS = 4


class TestTuneProducesSubgroupPlan:
    """Acceptance criterion 1: the CLI's offline sweep caches a hybrid
    plan whose P' is an explicit field, at threads=4."""

    def _script_subgroup_winner(self, monkeypatch, p, q, r, candidates):
        """Fake the measurement clock so the best-ranked hybrid-subgroup
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

        def fake_median_time(fn, trials=3, warmup=1):
            t0 = clock.now()
            fn()
            return clock.now() - t0

        monkeypatch.setattr(dispatch, "execute_plan", fake_execute)
        monkeypatch.setattr(measure, "median_time", fake_median_time)
        return target

    def test_cli_tune_caches_hybrid_plan_with_explicit_pprime(
            self, monkeypatch, tmp_path):
        p = q = r = 768
        candidates = 8
        target = self._script_subgroup_winner(monkeypatch, p, q, r,
                                              candidates)
        path = tmp_path / "plans.json"
        rc, text = run_cli(
            "tune", "--shapes", f"{p}x{q}x{r}", "--threads", str(THREADS),
            "--candidates", str(candidates), "--trials", "1",
            "--budget-seconds", "60", "--cache", str(path),
        )
        assert rc == 0
        assert "tuned 1 shape" in text
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


class TestThreadCountIsPartOfTheKey:
    """Acceptance criterion 2: no plan crosses thread counts."""

    def test_threads_2_entry_never_answers_threads_4(self, tmp_path):
        n = 192
        cache = PlanCache(tmp_path / "plans.json")
        tuned = Plan(algorithm="strassen", steps=1, scheme="hybrid-subgroup",
                     threads=2, subgroup=1)
        cache.put(n, n, n, "float64", 2, tuned)

        assert cache.get(n, n, n, "float64", 4) is None
        assert cache.nearest(n + 8, n, n, "float64", 4) is None
        plan, source = tuner.get_plan(n, n, n, dtype="float64", threads=4,
                                      cache=cache)
        assert source == "model"
        assert plan.threads == 4

        # ... and the model's plan executes correctly at 4 threads
        rng = np.random.default_rng(5)
        A = rng.random((n, n))
        B = rng.random((n, n))
        tuner.reset_workspaces()
        C = tuner.matmul(A, B, threads=4, cache=cache)
        tuner.reset_workspaces()
        exact = A @ B
        rel = np.linalg.norm(C - exact) / np.linalg.norm(exact)
        bound = (n * np.finfo(np.float64).eps if plan.is_dgemm else
                 error_bound(get_algorithm(plan.algorithm), plan.steps, n,
                             "float64"))
        assert rel <= bound

    def test_exact_hit_at_its_own_thread_count(self, tmp_path):
        """A shape tuned at 4 threads is served from its own entry,
        whatever another thread count holds for it."""
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
