"""Multi-core acceptance test for parallel-plan tuning, requiring a real
>= 4-thread budget (the ``multicore`` CI tier): a plan cached at
``threads=2`` never answers a ``threads=4`` query -- the shape resolves
to the cost model, and dispatch executes that plan correctly at 4
threads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import tuner
from repro.algorithms import get_algorithm
from repro.core.stability import error_bound
from repro.tuner.cache import PlanCache
from repro.tuner.space import Plan

pytestmark = pytest.mark.multicore


class TestThreadCountIsPartOfTheKey:
    """No plan crosses thread counts."""

    def test_threads_2_entry_never_answers_threads_4(self, tmp_path):
        n = 192
        cache = PlanCache(tmp_path / "plans.json")
        tuned = Plan(algorithm="strassen", steps=1, scheme="hybrid",
                     threads=2)
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
