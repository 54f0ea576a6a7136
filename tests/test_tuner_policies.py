"""Tests for online tuning policies, the fingerprinted plan cache, and the
hardened CLI paths (``repro tune --policy``, ``repro cache``).

The convergence test scripts plan timings through a fake monotonic clock
(patched into both the online policy and the offline measurement path),
so "the online policy promotes the same winner the offline tuner finds"
is asserted exactly, not statistically.
"""

import json

import numpy as np
import pytest
from conftest import FakeClock, run_cli

from repro import cli, tuner
from repro.bench.machine import fingerprint_digest, machine_fingerprint
from repro.tuner import dispatch, measure
from repro.tuner.cache import PlanCache, problem_key
from repro.tuner.policy import OnlineTunePolicy, get_policy
from repro.tuner.space import Plan


@pytest.fixture
def cache(tmp_path):
    return PlanCache(tmp_path / "plans.json")


# --------------------------------------------------------------- fingerprint
class TestFingerprint:
    def test_fingerprint_fields_and_stability(self):
        fp = machine_fingerprint()
        assert {"cpu", "cores", "blas", "blas_threads", "numpy"} <= set(fp)
        assert fingerprint_digest() == fingerprint_digest()
        assert fingerprint_digest({"cpu": "other"}) != fingerprint_digest()

    def test_entries_are_stamped(self, cache):
        cache.put(512, 512, 512, "float64", 1, Plan())
        ent = cache.entry(512, 512, 512, "float64", 1)
        assert ent["fingerprint"] == fingerprint_digest()

    def test_forged_fingerprint_bypassed_not_crashed(self, tmp_path):
        """A cache written under another machine's fingerprint must miss
        (dispatch falls through to the cost model) rather than crash or,
        worse, be trusted."""
        path = tmp_path / "plans.json"
        foreign = PlanCache(path, fingerprint="forged-elsewhere")
        pinned = Plan(algorithm="strassen", steps=2)
        foreign.put(640, 640, 640, "float64", 1, pinned)
        assert foreign.save()
        # same file, this machine's fingerprint: entry is stale
        local = PlanCache(path)
        assert local.get(640, 640, 640, "float64", 1) is None
        assert local.nearest(650, 640, 640, "float64", 1) is None
        plan, source = tuner.get_plan(640, 640, 640, threads=1, cache=local)
        assert source == "model"
        # ... and matmul still computes the right product
        A = np.linspace(-1, 1, 200 * 150).reshape(200, 150)
        B = np.linspace(1, -1, 150 * 180).reshape(150, 180)
        C = tuner.matmul(A, B, threads=1, cache=local)
        np.testing.assert_allclose(C, A @ B, atol=1e-9)

    def test_refreshing_a_stale_key_overwrites_the_stamp(self, tmp_path):
        path = tmp_path / "plans.json"
        foreign = PlanCache(path, fingerprint="forged-elsewhere")
        foreign.put(512, 512, 512, "float64", 1, Plan())
        foreign.save()
        local = PlanCache(path)
        local.put(512, 512, 512, "float64", 1, Plan(algorithm="strassen",
                                                    steps=1))
        assert local.stale_keys() == []
        assert local.get(512, 512, 512, "float64", 1) is not None


class TestInvalidation:
    def _mixed_cache(self, path):
        """One stale (foreign) entry, one fresh (local) entry."""
        foreign = PlanCache(path, fingerprint="forged-elsewhere")
        foreign.put(512, 512, 512, "float64", 1, Plan())
        foreign.save()
        local = PlanCache(path)
        local.put(1024, 1024, 1024, "float64", 1,
                  Plan(algorithm="strassen", steps=2))
        local.save()
        return PlanCache(path)

    def test_invalidate_clears_only_stale(self, tmp_path):
        cache = self._mixed_cache(tmp_path / "plans.json")
        assert len(cache) == 2
        removed = cache.invalidate()
        assert removed == [problem_key(512, 512, 512, "float64", 1)]
        assert len(cache) == 1
        assert cache.get(1024, 1024, 1024, "float64", 1) is not None

    def test_invalidate_all(self, tmp_path):
        cache = self._mixed_cache(tmp_path / "plans.json")
        removed = cache.invalidate(stale_only=False)
        assert len(removed) == 2 and len(cache) == 0

    def test_cli_invalidate_clears_only_stale(self, tmp_path):
        path = tmp_path / "plans.json"
        self._mixed_cache(path)
        rc, text = run_cli("cache", "invalidate", "--cache", str(path))
        assert rc == 0
        assert "removed 1 stale" in text
        survivor = PlanCache(path)
        assert len(survivor) == 1
        assert survivor.get(1024, 1024, 1024, "float64", 1) is not None

    def test_cli_show_marks_stale(self, tmp_path):
        path = tmp_path / "plans.json"
        self._mixed_cache(path)
        rc, text = run_cli("cache", "show", "--cache", str(path))
        assert rc == 0
        assert "2 entries, 1 stale" in text
        assert "STALE" in text and "fresh" in text

    def test_cli_show_marks_stale_schema_and_renders_pprime(self, tmp_path):
        """v4 entries show as STALE (schema v4); fresh v5 parallel entries
        render their scheme and explicit P'."""
        path = tmp_path / "plans.json"
        cache = PlanCache(path)
        cache.put(512, 512, 512, "float64", 4,
                  Plan(algorithm="strassen", steps=2,
                       scheme="hybrid-subgroup", threads=4, subgroup=2))
        cache.save()
        raw = json.loads(path.read_text())
        old_key = problem_key(640, 640, 640, "float64", 1)
        raw["entries"][old_key] = {
            "plan": Plan(algorithm="winograd", steps=1).to_dict(),
            "seconds": 0.5, "gflops": 1.0,
            "fingerprint": cache.fingerprint, "schema": 4,
        }
        path.write_text(json.dumps(raw))
        rc, text = run_cli("cache", "show", "--cache", str(path))
        assert rc == 0
        assert "STALE (schema v4)" in text
        assert "hybrid-subgroup" in text and "P'=2" in text

    def test_cli_invalidate_clears_stale_schema(self, tmp_path):
        """`repro cache invalidate` is the v4 -> v5 migration broom."""
        path = tmp_path / "plans.json"
        cache = PlanCache(path)
        cache.put(512, 512, 512, "float64", 1, Plan())
        cache.save()
        raw = json.loads(path.read_text())
        raw["schema"] = 4
        path.write_text(json.dumps(raw))
        rc, text = run_cli("cache", "invalidate", "--cache", str(path))
        assert rc == 0
        assert "removed 1 stale" in text
        assert len(PlanCache(path)) == 0


# ------------------------------------------------------------ online policy
class TestOnlineConvergence:
    def _scripted_world(self, monkeypatch, p, q, r, costs):
        """Patch execution + measurement so plan timings follow ``costs``.

        ``costs`` maps ``plan.describe()`` to scripted seconds; both the
        online policy's amortized timing and the offline tuner's
        ``median_time`` observe exactly those durations via a shared fake
        clock.
        """
        clock = FakeClock()

        def fake_execute(plan, A, B, pool=None, out=None, workspace=None):
            clock.advance(costs[plan.describe()])
            return A @ B

        def fake_median_time(fn, trials=3, warmup=1):
            t0 = clock.now()
            fn()
            return clock.now() - t0

        monkeypatch.setattr(dispatch, "execute_plan", fake_execute)
        monkeypatch.setattr(measure, "median_time", fake_median_time)
        return clock

    def test_online_converges_to_offline_winner(self, monkeypatch,
                                                tmp_path):
        """Acceptance criterion: after a bounded number of dispatches on a
        fixed shape, the online-cached plan equals the offline winner."""
        p = q = r = 192
        shortlist = tuner.enumerate_plans(p, q, r, threads=1,
                                          max_candidates=3)
        assert len(shortlist) == 3
        # script the *last*-ranked candidate as the true winner, so
        # converging to it requires real exploration, not cost-model luck
        costs = {pl.describe(): float(3 - i) for i, pl in
                 enumerate(shortlist)}
        clock = self._scripted_world(monkeypatch, p, q, r, costs)
        true_winner = shortlist[-1]

        offline = PlanCache(tmp_path / "offline.json")
        rep = measure.tune_shape(p, q, r, threads=1, max_candidates=3,
                                 cache=offline, persist=False)
        assert rep.best.plan == true_winner

        online = PlanCache(tmp_path / "online.json")
        policy = OnlineTunePolicy(shortlist=3, min_trials=2, epsilon=1.0,
                                  clock=clock.now, persist=False, seed=0)
        A = np.zeros((p, q))
        B = np.zeros((q, r))
        budget = 3 * 2  # shortlist * min_trials: the promotion bound
        for n in range(1, budget + 1):
            tuner.matmul(A, B, threads=1, cache=online, tune=policy)
            if policy.converged(p, q, r, "float64", 1):
                break
        assert policy.converged(p, q, r, "float64", 1)
        assert n <= budget
        assert online.get(p, q, r, "float64", 1) == rep.best.plan

    def test_after_convergence_dispatch_is_cache_hit(self, monkeypatch,
                                                     tmp_path):
        p = q = r = 192
        shortlist = tuner.enumerate_plans(p, q, r, threads=1,
                                          max_candidates=2)
        costs = {pl.describe(): 1.0 + i for i, pl in enumerate(shortlist)}
        clock = self._scripted_world(monkeypatch, p, q, r, costs)
        cache = PlanCache(tmp_path / "plans.json")
        policy = OnlineTunePolicy(shortlist=2, min_trials=1, epsilon=1.0,
                                  clock=clock.now, persist=False)
        A = np.zeros((p, q))
        B = np.zeros((q, r))
        for _ in range(4):
            tuner.matmul(A, B, threads=1, cache=cache, tune=policy)
        t_settled = clock.now()
        plan, source = policy.select(p, q, r, "float64", 1, cache)
        assert source == "cache"
        # cache-hit dispatches are not timed by the policy
        assert not policy.wants_timing(source)
        tuner.matmul(A, B, threads=1, cache=cache, tune=policy)
        assert clock.now() > t_settled  # the run itself still 'took time'

    def test_exploration_is_deterministic(self, monkeypatch, tmp_path):
        """Same seed, same call sequence -> same plan sequence (the
        epsilon-greedy RNG is seeded per problem key)."""
        p = q = r = 192
        shortlist = tuner.enumerate_plans(p, q, r, threads=1,
                                          max_candidates=3)
        costs = {pl.describe(): 1.0 for pl in shortlist}
        clock = self._scripted_world(monkeypatch, p, q, r, costs)
        sequences = []
        for _ in range(2):
            policy = OnlineTunePolicy(shortlist=3, min_trials=3,
                                      epsilon=0.5, clock=clock.now,
                                      persist=False, seed=42,
                                      max_dispatches=100)
            cache = PlanCache(tmp_path / "plans.json",
                              fingerprint="unused-box")
            seen = [policy.select(p, q, r, "float64", 1, cache) for _ in
                    range(6)]
            picks = []
            for plan, source in seen:
                assert source == "online"
                policy.observe(p, q, r, "float64", 1, cache, plan, 1.0)
                picks.append(plan.describe())
            sequences.append(picks)
        assert sequences[0] == sequences[1]

    def test_budget_exhaustion_promotes_best_observed(self, monkeypatch,
                                                      tmp_path):
        """max_dispatches is a hard budget: promotion happens even if some
        candidate never reached min_trials."""
        p = q = r = 192
        shortlist = tuner.enumerate_plans(p, q, r, threads=1,
                                          max_candidates=3)
        costs = {pl.describe(): 1.0 + i for i, pl in enumerate(shortlist)}
        clock = self._scripted_world(monkeypatch, p, q, r, costs)
        cache = PlanCache(tmp_path / "plans.json")
        policy = OnlineTunePolicy(shortlist=3, min_trials=50, epsilon=0.0,
                                  max_dispatches=4, clock=clock.now,
                                  persist=False)
        A = np.zeros((p, q))
        B = np.zeros((q, r))
        for _ in range(4):
            tuner.matmul(A, B, threads=1, cache=cache, tune=policy)
        assert policy.converged(p, q, r, "float64", 1)
        assert cache.get(p, q, r, "float64", 1) is not None

    def test_online_trusts_fresh_nearest_neighbour(self, cache):
        """The dispatch contract's nearest step holds under tune="online":
        a fresh adjacent-shape plan is dispatched (and not re-explored)."""
        pinned = Plan(algorithm="strassen", steps=1)
        cache.put(600, 600, 600, "float64", 1, pinned)
        policy = OnlineTunePolicy(persist=False)
        plan, source = policy.select(620, 600, 640, "float64", 1, cache)
        assert (plan, source) == (pinned, "nearest")
        assert not policy.wants_timing(source)

    def test_cross_thread_transfer_does_not_end_exploration(self, cache):
        """A cross-thread transfer is a serving prior, not measured
        evidence: the online policies keep exploring at the queried
        thread count (where, e.g., the winning P' may not even exist at
        the source thread count), while pure dispatch still serves the
        retargeted transfer in the meantime."""
        cache.put(600, 600, 600, "float64", 2,
                  Plan(algorithm="strassen", steps=1, scheme="bfs",
                       threads=2))
        for policy in (OnlineTunePolicy(persist=False),
                       tuner.UCBTunePolicy(persist=False)):
            plan, source = policy.select(600, 600, 600, "float64", 4, cache)
            assert source == "online"
            assert policy.wants_timing(source)
        # the never-policy dispatch path serves the transfer meanwhile
        got, src = tuner.get_plan(600, 600, 600, threads=4, cache=cache)
        assert src == "transfer" and got.threads == 4

    def test_auto_policy_retunes_on_cross_thread_transfer(self, cache,
                                                          monkeypatch):
        """tune="auto" treats a transfer like a cost-model miss: the plan
        was never measured at this thread count, so the first call runs
        the blocking sweep and caches a measured winner."""
        from repro.tuner import measure
        from repro.tuner.policy import AutoTunePolicy

        cache.put(600, 600, 600, "float64", 2,
                  Plan(algorithm="strassen", steps=1, scheme="bfs",
                       threads=2))
        tuned = Plan(algorithm="winograd", steps=1, scheme="hybrid",
                     threads=4)
        calls = []

        def fake_tune_shape(p, q, r, **kw):
            calls.append((p, q, r, kw["threads"]))
            m = measure.Measurement(tuned, 0.1, 1.0)
            return measure.ShapeReport(p, q, r, "float64", kw["threads"],
                                       (m,))

        monkeypatch.setattr(measure, "tune_shape", fake_tune_shape)
        plan, source = AutoTunePolicy().select(600, 600, 600, "float64", 4,
                                               cache)
        assert calls == [(600, 600, 600, 4)]
        assert (plan, source) == (tuned, "tuned")

    def test_converged_policy_repromotes_into_fresh_cache(self, monkeypatch,
                                                          tmp_path):
        """A policy that already converged must re-commit its winner when
        handed a cache that misses (new process cache, post-clear), not
        explore forever with an unreachable done-state."""
        p = q = r = 192
        shortlist = tuner.enumerate_plans(p, q, r, threads=1,
                                          max_candidates=2)
        costs = {pl.describe(): 1.0 + i for i, pl in enumerate(shortlist)}
        clock = self._scripted_world(monkeypatch, p, q, r, costs)
        policy = OnlineTunePolicy(shortlist=2, min_trials=1, epsilon=1.0,
                                  clock=clock.now, persist=False)
        c1 = PlanCache(tmp_path / "c1.json")
        A = np.zeros((p, q))
        B = np.zeros((q, r))
        for _ in range(3):
            tuner.matmul(A, B, threads=1, cache=c1, tune=policy)
        assert policy.converged(p, q, r, "float64", 1)
        winner = c1.get(p, q, r, "float64", 1)
        c2 = PlanCache(tmp_path / "c2.json")
        plan, source = policy.select(p, q, r, "float64", 1, c2)
        assert (plan, source) == (winner, "cache")
        assert c2.get(p, q, r, "float64", 1) == winner

    def test_float32_fast_path_starts_earlier(self, cache):
        """The dtype-aware trivial threshold: 96^3 is trivial for float64
        (leaf 64) but inside the float32 space (leaf 32)."""
        _, src64 = tuner.get_plan(96, 96, 96, dtype="float64", threads=1,
                                  cache=cache)
        plan32, src32 = tuner.get_plan(96, 96, 96, dtype="float32",
                                       threads=1, cache=cache)
        assert src64 == "trivial"
        assert src32 == "model"
        A, B = tuner.tuning_operands(96, 96, 96, dtype="float32", seed=2)
        C = tuner.matmul(A, B, threads=1, cache=cache)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        assert np.linalg.norm(C - ref) / np.linalg.norm(ref) < 1e-4

    def test_shared_online_policy_accumulates_state(self):
        a = get_policy("online")
        b = get_policy("online")
        assert a is b
        assert get_policy("online", min_trials=5) is not a  # private knobs
        tuner.reset_shared_policies()
        assert get_policy("online") is not a

    def test_shared_policy_hit_takes_no_lock(self, monkeypatch):
        """Every ``matmul`` call resolves its policy by name: the hit must
        not serialize concurrent dispatchers on ``_policy_lock``."""
        from repro.tuner import policy as policy_mod

        class Forbidden:
            def __enter__(self):
                raise AssertionError("get_policy hit took _policy_lock")

            def __exit__(self, *exc):
                return False

        first = get_policy("never")
        monkeypatch.setattr(policy_mod, "_policy_lock", Forbidden())
        assert get_policy("never") is first

    def test_policy_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            OnlineTunePolicy(epsilon=1.5)

    @pytest.mark.slow
    def test_online_tuning_real_timings(self, cache):
        """No mocks: online exploration on a real shape converges and the
        promoted plan dispatches to a correct product."""
        p = q = r = 160
        policy = OnlineTunePolicy(shortlist=2, min_trials=1, epsilon=1.0,
                                  persist=True)
        A, B = tuner.tuning_operands(p, q, r, seed=11)
        for _ in range(4):
            C = tuner.matmul(A, B, threads=1, cache=cache, tune=policy)
            np.testing.assert_allclose(C, A @ B, atol=1e-9)
        assert policy.converged(p, q, r, "float64", 1)
        assert PlanCache(cache.path).get(p, q, r, "float64", 1) is not None


# ---------------------------------------------------------------- UCB policy
class TestUCBConvergence:
    """Mocked-clock UCB1 tests: convergence to the offline winner, the
    epsilon-greedy cache-promotion contract, and per-key deterministic
    exploration counts (UCB uses no RNG at all)."""

    def _scripted_world(self, monkeypatch, costs):
        clock = FakeClock()

        def fake_execute(plan, A, B, pool=None, out=None, workspace=None):
            clock.advance(costs[plan.describe()])
            return A @ B

        def fake_median_time(fn, trials=3, warmup=1):
            t0 = clock.now()
            fn()
            return clock.now() - t0

        monkeypatch.setattr(dispatch, "execute_plan", fake_execute)
        monkeypatch.setattr(measure, "median_time", fake_median_time)
        return clock

    def test_ucb_converges_to_offline_winner(self, monkeypatch, tmp_path):
        p = q = r = 192
        shortlist = tuner.enumerate_plans(p, q, r, threads=1,
                                          max_candidates=3)
        assert len(shortlist) == 3
        # the last-ranked candidate is the true winner: converging to it
        # requires actual exploration, not cost-model luck
        costs = {pl.describe(): float(3 - i) for i, pl in
                 enumerate(shortlist)}
        clock = self._scripted_world(monkeypatch, costs)
        offline = PlanCache(tmp_path / "offline.json")
        rep = measure.tune_shape(p, q, r, threads=1, max_candidates=3,
                                 cache=offline, persist=False)
        assert rep.best.plan == shortlist[-1]

        online = PlanCache(tmp_path / "ucb.json")
        policy = tuner.UCBTunePolicy(shortlist=3, min_trials=2,
                                     clock=clock.now, persist=False)
        A = np.zeros((p, q))
        B = np.zeros((q, r))
        for n in range(1, policy.max_dispatches + 1):
            tuner.matmul(A, B, threads=1, cache=online, tune=policy)
            if policy.converged(p, q, r, "float64", 1):
                break
        assert policy.converged(p, q, r, "float64", 1)
        # the confidence bonus revisits the incumbent before finishing the
        # undersampled arms, so UCB may spend a few dispatches more than
        # epsilon-greedy's shortlist * min_trials floor -- but not many
        assert n <= 2 * 3 * 2
        assert online.get(p, q, r, "float64", 1) == rep.best.plan

    def test_ucb_matches_epsilon_greedy_promotion_contract(self, monkeypatch,
                                                           tmp_path):
        """Same scripted world, same shortlist: UCB and epsilon-greedy
        promote the same winner, stamp the same entry fields, and both
        serve cache hits (untimed) afterwards."""
        p = q = r = 192
        shortlist = tuner.enumerate_plans(p, q, r, threads=1,
                                          max_candidates=3)
        costs = {pl.describe(): 1.0 + (i % 2) for i, pl in
                 enumerate(shortlist)}
        clock = self._scripted_world(monkeypatch, costs)
        A = np.zeros((p, q))
        B = np.zeros((q, r))
        promoted = {}
        for name, policy in (
            ("eps", OnlineTunePolicy(shortlist=3, min_trials=1, epsilon=1.0,
                                     clock=clock.now, persist=False)),
            ("ucb", tuner.UCBTunePolicy(shortlist=3, min_trials=1,
                                        clock=clock.now, persist=False)),
        ):
            cache = PlanCache(tmp_path / f"{name}.json")
            for _ in range(8):
                tuner.matmul(A, B, threads=1, cache=cache, tune=policy)
                if policy.converged(p, q, r, "float64", 1):
                    break
            assert policy.converged(p, q, r, "float64", 1)
            ent = cache.entry(p, q, r, "float64", 1)
            assert ent["seconds"] is not None and ent["gflops"] is not None
            plan, source = policy.select(p, q, r, "float64", 1, cache)
            assert source == "cache"
            assert not policy.wants_timing(source)
            promoted[name] = cache.get(p, q, r, "float64", 1)
        assert promoted["eps"] == promoted["ucb"]

    def test_ucb_exploration_counts_deterministic_per_key(self, tmp_path):
        """No RNG anywhere: two fresh policies fed identical observations
        pick identical plan sequences, *regardless of seed* -- the
        exploration counts for a problem key are a pure function of the
        observed durations."""
        p = q = r = 192
        sequences = []
        for seed in (0, 99):
            policy = tuner.UCBTunePolicy(shortlist=3, min_trials=4,
                                         seed=seed, persist=False,
                                         max_dispatches=100)
            cache = PlanCache(tmp_path / "unused.json",
                              fingerprint="unused-box")
            picks = []
            for step in range(10):
                plan, source = policy.select(p, q, r, "float64", 1, cache)
                assert source == "online"
                # scripted durations depend only on the step index, so
                # both runs observe identical histories
                policy.observe(p, q, r, "float64", 1, cache, plan,
                               1.0 + (step % 3) * 0.25)
                picks.append(plan.describe())
            sequences.append(picks)
        assert sequences[0] == sequences[1]

    def test_ucb_budget_exhaustion_promotes_best_observed(self, monkeypatch,
                                                          tmp_path):
        p = q = r = 192
        shortlist = tuner.enumerate_plans(p, q, r, threads=1,
                                          max_candidates=3)
        costs = {pl.describe(): 1.0 + i for i, pl in enumerate(shortlist)}
        clock = self._scripted_world(monkeypatch, costs)
        cache = PlanCache(tmp_path / "plans.json")
        policy = tuner.UCBTunePolicy(shortlist=3, min_trials=50,
                                     max_dispatches=4, clock=clock.now,
                                     persist=False)
        A = np.zeros((p, q))
        B = np.zeros((q, r))
        for _ in range(4):
            tuner.matmul(A, B, threads=1, cache=cache, tune=policy)
        assert policy.converged(p, q, r, "float64", 1)
        assert cache.get(p, q, r, "float64", 1) is not None

    def test_ucb_is_registered_policy(self):
        from repro.tuner.policy import POLICIES

        assert POLICIES["ucb"] is tuner.UCBTunePolicy
        a = get_policy("ucb")
        assert isinstance(a, tuner.UCBTunePolicy)
        assert get_policy("ucb") is a  # shared instance, like "online"
        tuner.reset_shared_policies()

    def test_ucb_rejects_negative_exploration(self):
        with pytest.raises(ValueError):
            tuner.UCBTunePolicy(exploration=-0.5)

    def test_tune_ucb_cli_converges(self, tmp_path):
        """`repro tune --policy ucb` end-to-end on real (tiny) timings."""
        path = tmp_path / "plans.json"
        rc, text = run_cli(
            "tune", "--policy", "ucb", "--shapes", "192", "--threads",
            "1", "--dispatches", "12", "--candidates", "2",
            "--cache", str(path),
        )
        assert rc == 0
        assert "converged" in text
        cache = PlanCache(path)
        assert len(cache) == 1
        ent = cache.entry(192, 192, 192, "float64", 1)
        assert "subgroup" in ent  # v5 entries carry the explicit P' field


# ------------------------------------------------------- measure determinism
class TestMeasureDeterminism:
    def test_operands_reproducible(self):
        A1, B1 = tuner.tuning_operands(96, 64, 80, "float64", seed=5)
        A2, B2 = tuner.tuning_operands(96, 64, 80, "float64", seed=5)
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(B1, B2)

    def test_operands_vary_by_shape_dtype_seed(self):
        base, _ = tuner.tuning_operands(96, 64, 80, "float64", seed=5)
        other_seed, _ = tuner.tuning_operands(96, 64, 80, "float64", seed=6)
        other_dtype, _ = tuner.tuning_operands(96, 64, 80, "float32", seed=5)
        assert not np.array_equal(base, other_seed)
        assert not np.array_equal(base, other_dtype.astype(np.float64))

    def test_operands_dtype_and_range(self):
        A, B = tuner.tuning_operands(64, 48, 56, "float32", seed=0)
        assert A.dtype == np.float32 and B.dtype == np.float32
        assert float(np.abs(A).max()) <= 1.0

    def test_repeated_tunes_measure_identical_operands(self, monkeypatch,
                                                       cache):
        """The satellite fix, asserted end-to-end: two tune_shape runs see
        bit-identical operand matrices."""
        seen = []
        real = measure.tuning_operands

        def spy(*a, **kw):
            out = real(*a, **kw)
            seen.append(out)
            return out

        monkeypatch.setattr(measure, "tuning_operands", spy)
        for _ in range(2):
            measure.tune_shape(160, 160, 160, threads=1, budget_s=2.0,
                               trials=1, max_candidates=1, cache=cache,
                               persist=False, seed=9)
        (A1, B1), (A2, B2) = seen
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(B1, B2)


# ------------------------------------------------------------ CLI hardening
class TestCliErrorPaths:
    def test_tune_bad_shapes(self, capsys):
        rc, _ = run_cli("tune", "--shapes", "12xbogus", "--dry-run")
        assert rc == 2
        assert "bad shape" in capsys.readouterr().err

    def test_tune_bad_policy_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(
                ["tune", "--policy", "sometimes"])
        assert exc.value.code == 2

    def test_bad_tune_mode_in_api(self, cache):
        A = np.zeros((8, 8))
        with pytest.raises(ValueError):
            tuner.matmul(A, A, cache=cache, tune="sometimes")

    def test_cache_show_corrupt_json(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("{ not json at all")
        rc, text = run_cli("cache", "show", "--cache", str(path))
        assert rc == 0
        assert "0 entries" in text

    def test_cache_show_survives_invalid_plan_entry(self, tmp_path):
        """The diagnosis tool must render a row for an entry it cannot
        decode (hand-edited or future-release plan dict), not crash."""
        path = tmp_path / "plans.json"
        cache = PlanCache(path)
        cache.put(512, 512, 512, "float64", 1, Plan())
        cache.save()
        raw = json.loads(path.read_text())
        key = problem_key(512, 512, 512, "float64", 1)
        raw["entries"][key]["plan"] = {"scheme": "bogus"}
        path.write_text(json.dumps(raw))
        rc, text = run_cli("cache", "show", "--cache", str(path))
        assert rc == 0
        assert " -> ?" in text

    def test_cache_show_empty_file(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("")
        rc, text = run_cli("cache", "show", "--cache", str(path))
        assert rc == 0
        assert "0 entries" in text

    def test_tune_with_corrupt_cache_recovers(self, tmp_path):
        """A corrupt plan-cache file is ignored, re-tuned over, and
        rewritten valid."""
        path = tmp_path / "plans.json"
        path.write_text('{"schema": "garbage"')
        rc, text = run_cli(
            "tune", "--shapes", "160", "--threads", "1", "--trials", "1",
            "--candidates", "1", "--budget-seconds", "2",
            "--cache", str(path),
        )
        assert rc == 0 and "tuned 1 shape" in text
        assert json.loads(path.read_text())["schema"] == tuner.SCHEMA_VERSION

    def test_unwritable_cache_dir_falls_back_to_memory(self, tmp_path):
        """A cache path whose parent cannot be created (a file stands in
        the way) must not break tuning: it degrades to in-memory."""
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        path = blocker / "plans.json"
        cache = PlanCache(path)
        cache.put(512, 512, 512, "float64", 1, Plan())
        assert cache.save() is False
        assert cache.save_error is not None
        # entry still usable in-memory
        assert cache.get(512, 512, 512, "float64", 1) is not None
        rc, text = run_cli(
            "tune", "--shapes", "160", "--threads", "1", "--trials", "1",
            "--candidates", "1", "--budget-seconds", "2",
            "--cache", str(path),
        )
        assert rc == 0
        assert "warning: cache not persisted" in text

    def test_save_unserializable_entry_degrades_not_raises(self, tmp_path):
        """A non-JSON value smuggled into an entry (e.g. a numpy scalar)
        must degrade to in-memory like an unwritable dir -- and must not
        leak the mkstemp sibling temp file."""
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(512, 512, 512, "float64", 1, Plan(),
                  seconds=np.float32(0.25))
        assert cache.save() is False
        assert isinstance(cache.save_error, TypeError)
        assert list(tmp_path.iterdir()) == []  # no temp-file litter

    def test_fingerprint_ignores_live_blas_state(self):
        """The digest is configuration, not mutable state: computing it
        inside a blas_threads context must not change it."""
        from repro.parallel import blas

        machine_fingerprint.cache_clear()
        with blas.blas_threads(1):
            inside = fingerprint_digest()
        machine_fingerprint.cache_clear()
        outside = fingerprint_digest()
        assert inside == outside

    def test_tune_online_cli_converges(self, tmp_path):
        path = tmp_path / "plans.json"
        rc, text = run_cli(
            "tune", "--policy", "online", "--shapes", "192", "--threads",
            "1", "--dispatches", "12", "--candidates", "2",
            "--cache", str(path),
        )
        assert rc == 0
        assert "converged" in text
        assert len(PlanCache(path)) == 1

    def test_tune_online_trivial_shape(self, tmp_path):
        rc, text = run_cli(
            "tune", "--policy", "online", "--shapes", "64", "--threads",
            "1", "--cache", str(tmp_path / "plans.json"),
        )
        assert rc == 0 and "trivial" in text

    def test_cache_invalidate_unwritable(self, tmp_path):
        """Invalidation that cannot persist reports failure (exit 1)
        instead of silently pretending the file changed."""
        path = tmp_path / "plans.json"
        foreign = PlanCache(path, fingerprint="forged-elsewhere")
        foreign.put(512, 512, 512, "float64", 1, Plan())
        foreign.save()
        path.chmod(0o444)
        parent_mode = tmp_path.stat().st_mode
        tmp_path.chmod(0o555)
        try:
            import os

            if os.access(str(tmp_path), os.W_OK):
                pytest.skip("running as root: directory modes not enforced")
            rc, _ = run_cli("cache", "invalidate", "--cache", str(path))
            assert rc == 1
        finally:
            tmp_path.chmod(parent_mode)
            path.chmod(0o644)