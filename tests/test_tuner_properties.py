"""Property-based randomized tests for the tuner subsystem.

Hypothesis drives three families of invariants the hand-picked cases in
``test_tuner.py`` cannot cover:

- **cache round-trip**: any plan stored under any well-formed key is
  recovered bit-identically after a save/load cycle;
- **nearest-shape fallback**: the returned entry is the log-space-closest
  candidate at the queried thread count (never another thread count's,
  never the queried key's own), and enlarging the radius is monotone (a
  hit never disappears, the distance never increases);
- **dispatch correctness**: ``tuner.matmul`` equals numpy for random
  shapes, dtypes and policies -- with float32 error asserted against the
  a-priori stability bound of ``core.stability`` (the acceptance criterion
  for the dtype-specific candidate space).
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import tuner
from repro.algorithms import get_algorithm
from repro.core.stability import error_bound
from repro.tuner.cache import SCHEMA_VERSION, PlanCache
from repro.tuner.space import PLAN_SCHEMES, Plan

#: catalog names safe to execute at small sizes in property tests
ALGORITHMS = ["strassen", "winograd", "s234", "s333", "hk223"]

DTYPES = ["float32", "float64"]

dims = st.integers(min_value=1, max_value=4096)
threads_st = st.integers(min_value=1, max_value=16)

plans = st.builds(
    Plan,
    algorithm=st.sampled_from(ALGORITHMS + ["dgemm"]),
    steps=st.integers(min_value=0, max_value=3),
    scheme=st.sampled_from(PLAN_SCHEMES),
    threads=threads_st,
)


def _log_dist(a, b):
    return math.sqrt(sum(math.log(x / y) ** 2 for x, y in zip(a, b)))


class TestCacheRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(m=dims, k=dims, n=dims, dtype=st.sampled_from(DTYPES),
           threads=threads_st, plan=plans,
           seconds=st.floats(min_value=1e-6, max_value=1e3),
           )
    def test_put_save_load_get(self, m, k, n, dtype, threads, plan, seconds):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plans.json"
            cache = PlanCache(path)
            cache.put(m, k, n, dtype, threads, plan, seconds=seconds)
            assert cache.save()
            fresh = PlanCache(path)
            assert fresh.get(m, k, n, dtype, threads) == plan
            ent = fresh.entry(m, k, n, dtype, threads)
            assert ent["seconds"] == seconds
            assert ent["fingerprint"] == cache.fingerprint

    @settings(max_examples=25, deadline=None)
    @given(m=dims, k=dims, n=dims, plan=plans)
    def test_foreign_fingerprint_never_resolves(self, m, k, n, plan):
        """Whatever the key, an entry stamped elsewhere is bypassed."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plans.json"
            writer = PlanCache(path, fingerprint="other-machine")
            writer.put(m, k, n, "float64", 1, plan)
            assert writer.save()
            reader = PlanCache(path)  # this machine's fingerprint
            assert reader.get(m, k, n, "float64", 1) is None
            assert reader.nearest(m, k, n, "float64", 1) is None
            assert reader.stale_keys()  # visible to invalidation, though


class TestSchema:
    """Only v6 files are read, and entries carry their scheme."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=dims, k=dims, n=dims, threads=threads_st, plan=plans)
    def test_entry_records_its_scheme(self, tmp_path, m, k, n, threads,
                                      plan):
        """The entry records the plan's scheme as an explicit field, and
        no sub-group P' anywhere."""
        path = tmp_path / "plans.json"
        cache = PlanCache(path)
        cache.put(m, k, n, "float64", threads, plan)
        assert cache.save()
        ent = PlanCache(path).entry(m, k, n, "float64", threads)
        assert ent["scheme"] == plan.scheme
        assert "subgroup" not in ent and "subgroup" not in ent["plan"]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=dims, k=dims, n=dims, plan=plans,
           schema=st.sampled_from([4, 5]))
    def test_v4_v5_files_load_empty_and_save_v6(self, tmp_path, m, k, n,
                                                plan, schema):
        """A file from an older schema reads as any unknown schema does:
        empty, no error, and the next save rewrites it as the current
        one."""
        path = tmp_path / "plans.json"
        writer = PlanCache(path)  # this machine's fingerprint...
        writer.put(m, k, n, "float64", 1, plan)
        writer.save()
        raw = json.loads(path.read_text())
        raw["schema"] = schema  # ...but an old schema stamp
        path.write_text(json.dumps(raw))

        reader = PlanCache(path)
        assert len(reader) == 0 and reader.load_error is None
        assert reader.get(m, k, n, "float64", 1) is None
        assert reader.save()
        assert json.loads(path.read_text())["schema"] == SCHEMA_VERSION == 6

    def test_unknown_future_schema_still_starts_fresh(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION + 1,
                                    "entries": {"1x1x1:float64:1t": {}}}))
        assert len(PlanCache(path)) == 0


class TestNearestMonotonicity:
    shapes = st.tuples(
        st.integers(min_value=64, max_value=2048),
        st.integers(min_value=64, max_value=2048),
        st.integers(min_value=64, max_value=2048),
    )

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(query=shapes,
           entries=st.lists(st.tuples(shapes, st.sampled_from([1, 2, 8])),
                            min_size=1, max_size=6),
           threads=st.sampled_from([1, 2]))
    def test_returns_the_closest_entry_within_radius(self, tmp_path, query,
                                                     entries, threads):
        """The closest other shape tuned at the queried thread count --
        however close an entry from another thread count (even the same
        shape), it never answers."""
        cache = PlanCache(tmp_path / "plans.json")
        for i, (shape, t) in enumerate(entries):
            # another thread count's plans are told apart by algorithm
            alg = "strassen" if t == threads else "winograd"
            cache.put(*shape, "float64", t,
                      Plan(algorithm=alg, steps=1 + i % 3))
        got = cache.nearest(*query, "float64", threads, radius=1.0)
        same = {s for s, t in entries if t == threads and s != query}
        dists = sorted(_log_dist(e, query) for e in same)
        if not dists or dists[0] > 1.0:
            assert got is None
        else:
            assert got is not None
            # the plan returned belongs to an entry at the minimal distance
            winners = {e for e in same
                       if _log_dist(e, query) == pytest.approx(dists[0])}
            assert got in {cache.get(*w, "float64", threads)
                           for w in winners}

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(query=shapes, entry=shapes,
           r1=st.floats(min_value=0.05, max_value=2.0),
           r2=st.floats(min_value=0.05, max_value=2.0))
    def test_monotone_in_radius(self, tmp_path, query, entry, r1, r2):
        """A hit at a small radius never disappears at a larger one."""
        r1, r2 = sorted((r1, r2))
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(*entry, "float64", 1, Plan(algorithm="winograd", steps=1))
        small = cache.nearest(*query, "float64", 1, radius=r1)
        large = cache.nearest(*query, "float64", 1, radius=r2)
        if small is not None:
            assert large == small
        # and the radius-bound itself is honored
        if large is not None:
            assert _log_dist(entry, query) <= r2 + 1e-9


class TestDispatchCorrectness:
    shapes = st.tuples(
        st.integers(min_value=130, max_value=300),
        st.integers(min_value=130, max_value=300),
        st.integers(min_value=130, max_value=300),
    )

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=shapes, dtype=st.sampled_from(DTYPES),
           policy=st.sampled_from(["never", "auto"]),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_matmul_matches_numpy(self, tmp_path, shape, dtype, policy,
                                  seed):
        p, q, r = shape
        A, B = tuner.tuning_operands(p, q, r, dtype=dtype, seed=seed)
        cache = PlanCache(tmp_path / "plans.json")
        C = tuner.matmul(A, B, threads=1, cache=cache, tune=policy)
        assert C.dtype == np.dtype(dtype)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        rel = np.linalg.norm(C.astype(np.float64) - ref) / np.linalg.norm(ref)
        plan, _ = tuner.get_plan(p, q, r, dtype=dtype, threads=1,
                                 cache=cache)
        eps = float(np.finfo(np.dtype(dtype)).eps)
        if plan.is_dgemm:
            bound = q * eps
        else:
            # the acceptance criterion: observed float32 (and float64)
            # dispatch error within the a-priori stability bound
            bound = error_bound(get_algorithm(plan.algorithm), plan.steps,
                                q, dtype)
        assert rel <= bound

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=shapes, algorithm=st.sampled_from(ALGORITHMS),
           steps=st.integers(min_value=1, max_value=2),
           dtype=st.sampled_from(DTYPES))
    def test_planted_plan_executes_correctly(self, tmp_path, shape,
                                             algorithm, steps, dtype):
        """Any cached plan -- not just cost-model favourites -- dispatches
        to a correct product (dynamic peeling covers ragged shapes)."""
        p, q, r = shape
        cache = PlanCache(tmp_path / "plans.json")
        plan = Plan(algorithm=algorithm, steps=steps)
        cache.put(p, q, r, dtype, 1, plan)
        A, B = tuner.tuning_operands(p, q, r, dtype=dtype, seed=3)
        got, source = tuner.get_plan(p, q, r, dtype=dtype, threads=1,
                                     cache=cache)
        assert (got, source) == (plan, "cache")
        C = tuner.matmul(A, B, threads=1, cache=cache)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        rel = np.linalg.norm(C.astype(np.float64) - ref) / np.linalg.norm(ref)
        assert rel <= error_bound(get_algorithm(algorithm), steps, q, dtype)


class TestFloat32Space:
    @settings(max_examples=15, deadline=None)
    @given(shape=st.tuples(
        st.integers(min_value=128, max_value=4096),
        st.integers(min_value=128, max_value=4096),
        st.integers(min_value=128, max_value=4096),
    ))
    def test_candidates_respect_stability_budget(self, shape):
        """Every float32 candidate stays within the growth bound -- the
        deeper recursion the space allows is stability-bounded, never
        free."""
        from repro.core.stability import growth_bound, stability_factors

        p, q, r = shape
        for plan in tuner.enumerate_plans(p, q, r, dtype="float32"):
            if plan.is_dgemm:
                continue
            alg = get_algorithm(plan.algorithm)
            assert stability_factors(alg).growth(plan.steps) <= \
                growth_bound("float32")

    @settings(max_examples=15, deadline=None)
    @given(shape=st.tuples(
        st.integers(min_value=256, max_value=4096),
        st.integers(min_value=256, max_value=4096),
        st.integers(min_value=256, max_value=4096),
    ))
    def test_float32_space_at_least_as_deep(self, shape):
        """Lower precision never *shrinks* the space except where the
        stability budget binds: for every algorithm the float64 space
        recurses into, the float32 space goes at least as deep (smaller
        leaves are viable, Huang et al.) -- unless
        ``max_stable_steps(alg, "float32")`` caps it lower, which is the
        bound doing its job, not the space regressing."""
        from repro.core.stability import max_stable_steps

        p, q, r = shape
        depth64 = {}
        for pl in tuner.enumerate_plans(p, q, r, dtype="float64"):
            if not pl.is_dgemm:
                depth64[pl.algorithm] = max(depth64.get(pl.algorithm, 0),
                                            pl.steps)
        depth32 = {}
        for pl in tuner.enumerate_plans(p, q, r, dtype="float32"):
            if not pl.is_dgemm:
                depth32[pl.algorithm] = max(depth32.get(pl.algorithm, 0),
                                            pl.steps)
        for name, d64 in depth64.items():
            cap32 = max_stable_steps(get_algorithm(name), "float32")
            assert depth32.get(name, 0) >= min(d64, cap32)
