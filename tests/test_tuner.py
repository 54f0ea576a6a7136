"""Tests for the shape-aware autotuner and plan-cache dispatch
(``repro.tuner``): plan serialization, candidate enumeration and pruning,
cache roundtrip/versioning/nearest-shape fallback, dispatch resolution
order, and end-to-end ``repro.matmul`` numerical correctness."""

import json

import numpy as np
import pytest

from repro import tuner
from repro.core.cost import plan_cost
from repro.algorithms import get_algorithm
from repro.tuner.cache import PlanCache, problem_key
from repro.tuner.space import Plan
from repro.util.matrices import random_matrix


@pytest.fixture
def cache(tmp_path):
    return PlanCache(tmp_path / "plans.json")


class TestPlan:
    def test_roundtrip(self):
        pl = Plan(algorithm="strassen", steps=2, scheme="hybrid", threads=4)
        assert Plan.from_dict(pl.to_dict()) == pl

    def test_from_dict_ignores_unknown_fields(self):
        pl = Plan(algorithm="s424", steps=1)
        d = pl.to_dict()
        d["future_field"] = "whatever"
        d["strategy"] = "streaming"  # a field plans carried until PR 19
        assert Plan.from_dict(d) == pl
        with pytest.raises(TypeError):
            Plan(algorithm="s424", steps=1, strategy="streaming")

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError):
            Plan(algorithm="strassen", steps=1, scheme="magic")

    def test_dgemm_plans(self):
        assert Plan().is_dgemm
        assert Plan(algorithm="strassen", steps=0).is_dgemm
        assert not Plan(algorithm="strassen", steps=1).is_dgemm

#: the retired sub-group hybrid's scheme name, spelled so that a search
#: of the tree for it finds live uses only
RETIRED = "-".join(("hybrid", "subgroup"))


@pytest.mark.parametrize("surface", ["plan", "multiply_parallel", "cli",
                                     "cache"])
def test_the_retired_subgroup_scheme_is_gone_everywhere(surface, tmp_path,
                                                        capsys):
    """The sub-group hybrid left the plan space: every entry point refuses
    its name, and a tuned v6 entry that names it (the schema was not
    bumped) still loads -- as a miss for ``get`` and ``nearest``, beside
    a sibling entry that keeps answering."""
    if surface == "plan":
        with pytest.raises(ValueError, match="scheme"):
            Plan(algorithm="strassen", steps=1, scheme=RETIRED, threads=2)
    elif surface == "multiply_parallel":
        from repro.parallel import multiply_parallel

        A = random_matrix(64, 64, 0)
        with pytest.raises(ValueError, match="scheme"):
            multiply_parallel(A, A, get_algorithm("strassen"), 1,
                              scheme=RETIRED, threads=2)
    elif surface == "cli":
        from repro import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["multiply", "-n", "96", "--scheme", RETIRED,
                      "--threads", "2", "--trials", "1"])
        assert exc.value.code == 2
        assert RETIRED in capsys.readouterr().err
    else:
        cache = PlanCache(tmp_path / "plans.json")
        kept = Plan(algorithm="strassen", steps=1, scheme="hybrid",
                    threads=2)
        cache.put(1024, 1024, 1024, "float64", 2, kept)
        cache.put(512, 512, 512, "float64", 2, kept)
        cache.save()
        raw = json.loads(cache.path.read_text())
        assert raw["schema"] == 6
        old = raw["entries"][problem_key(512, 512, 512, "float64", 2)]
        old["plan"].update(scheme=RETIRED, subgroup=1)
        old.update(scheme=RETIRED, subgroup=1)
        cache.path.write_text(json.dumps(raw))
        loaded = PlanCache(cache.path)
        assert len(loaded) == 2 and loaded.load_error is None
        assert loaded.get(512, 512, 512, "float64", 2) is None
        assert loaded.nearest(520, 512, 512, "float64", 2) is None
        assert loaded.get(1024, 1024, 1024, "float64", 2) == kept
        assert loaded.nearest(1000, 1024, 1024, "float64", 2) == kept


class TestCostModel:
    @pytest.mark.parametrize("fused,passes", [(False, 90), (True, 50)])
    def test_matches_exact_recurrence_on_divisible_shape(
            self, use_machine, monkeypatch, fused, passes):
        """At one flop and one byte a nanosecond the seconds model walks
        the levels the paper's recurrence walks: 49 leaf gemms, and per
        level-0 / level-1 block 18 additions there, 90 block passes (54
        reads + 36 writes, pairwise) of 8-byte words here for the NumPy
        executors, 50 for the fused kernels (one pass per chain)."""
        from repro.codegen import cbackend
        from repro.core.cost import recursive_flops

        monkeypatch.setattr(cbackend, "available", lambda: fused)
        alg = get_algorithm("strassen")
        blocks = 128**2 + 7 * 64**2
        assert recursive_flops(alg, 256, 256, 256, 2) == (
            49 * (2 * 64**3 - 64**2) + 18 * blocks)
        use_machine(gflops=1.0, add_gbs=1.0)
        assert plan_cost(alg, 256, 256, 256, 2) * 1e9 == pytest.approx(
            49 * 2 * 64**3 + 8 * passes * blocks)

    def test_fast_beats_classical_at_depth(self):
        alg = get_algorithm("strassen")
        assert plan_cost(alg, 4096, 4096, 4096, 2) < plan_cost(
            None, 4096, 4096, 4096, 0
        )

    def test_penalty_disfavors_addition_heavy_plans(self, use_machine):
        """Additions are charged at the machine's streaming bandwidth: a
        tenth of it makes the same plan dearer and leaves dgemm alone."""
        alg = get_algorithm("strassen")
        use_machine(add_gbs=60.0)
        cheap = plan_cost(alg, 1024, 1024, 1024, 1)
        dgemm = plan_cost(None, 1024, 1024, 1024, 0)
        use_machine(add_gbs=6.0)
        assert plan_cost(alg, 1024, 1024, 1024, 1) > cheap
        assert plan_cost(None, 1024, 1024, 1024, 0) == dgemm

    def test_dgemm_cost_is_the_curves_prediction(self, use_machine):
        from repro.bench import machine

        use_machine(gflops=[2.0, 8.0, 10.0], sizes=[64, 512, 2048])
        for threads in (1, 4):
            curve = machine.calibration("float64", threads).gemm
            for shape in ((300, 300, 300), (1000, 40, 1000), (4096,) * 3):
                want = curve.seconds(*shape)
                assert plan_cost(None, *shape, 0, threads=threads) == want
                assert plan_cost(get_algorithm("strassen"), *shape, 0,
                                 threads=threads) == want
        # the rate is read at the cube of the same volume
        assert curve.seconds(512, 512, 512) == pytest.approx(
            2 * 512**3 / (4 * 8.0e9))

    @staticmethod
    def _best_steps(n, cap=3):
        alg = get_algorithm("strassen")
        return min(range(cap + 1), key=lambda s: plan_cost(
            alg if s else None, n, n, n, s))

    def test_flat_curve_recurses_deeper_as_n_grows(self, use_machine):
        """With no ramp to fall down, only additions and fixed costs hold
        recursion back, and both shrink against N^3."""
        use_machine(gflops=10.0, add_gbs=20.0, call_s=5e-6)
        depths = [self._best_steps(n) for n in (128, 512, 2048, 8192)]
        assert depths == sorted(depths)
        assert depths[0] == 0 and depths[-1] == 3

    def test_steep_ramp_returns_dgemm_only(self, use_machine):
        """Section 3.4: where halving the size halves the gemm rate, a
        step's 8/7 cannot pay -- with free additions, on every algorithm."""
        sizes = [32, 64, 128, 256, 512, 1024, 2048]
        use_machine(gflops=[n / 64 for n in sizes], sizes=sizes,
                    add_gbs=1e6)
        assert self._best_steps(2048) == 0
        plans = tuner.enumerate_plans(2048, 2048, 2048)
        assert [pl.describe() for pl in plans] == ["dgemm(1t)"]

    def test_bfs_pays_the_extra_wave(self, use_machine):
        """7 leaves on 7 workers are one wave, on 6 workers two; the
        hybrid runs the odd leaf on all threads instead."""
        use_machine(add_gbs=1e9)
        alg = get_algorithm("strassen")
        leaf = plan_cost(None, 512, 512, 512, 0)

        def cost(scheme, threads):
            return plan_cost(alg, 1024, 1024, 1024, 1, scheme=scheme,
                             threads=threads)
        assert cost("bfs", 7) == pytest.approx(leaf)
        assert cost("bfs", 6) == pytest.approx(2 * leaf)
        assert cost("hybrid", 6) == pytest.approx(leaf + leaf / 6)

    def test_odd_dimensions_pay_their_peel_passes(self, use_machine,
                                                  monkeypatch):
        """Dynamic peeling recurses on the divisible core (same leaves)
        and fixes the strips up with thin products: a pass over B for an
        odd p, over A for an odd r, and for the NumPy executors an odd q
        an in-place update of the core of C (``tests/test_cost.py`` has
        the compiled side)."""
        from repro.codegen import cbackend

        monkeypatch.setattr(cbackend, "available", lambda: False)
        use_machine(add_gbs=8.0)        # one float64 word a nanosecond
        alg = get_algorithm("strassen")
        even = plan_cost(alg, 1024, 1024, 1024, 1)
        words = 1024 * 1024
        for shape, extra in (((1025, 1024, 1024), words),
                             ((1024, 1024, 1025), words),
                             ((1024, 1025, 1024), 2 * words),
                             ((1025, 1025, 1025), 2 * 1025**2 + 2 * 1025**2)):
            assert (plan_cost(alg, *shape, 1) - even) * 1e9 == pytest.approx(
                extra)

    @pytest.mark.parametrize("fused,tasks", [
        # NumPy adders: 7 + 49 children formed, 49 leaves multiplied,
        # 1 + 7 nodes combined
        (False, 56 + 49 + 8),
        # compiled kernels: the root in 4 row ranges and its 7 children in
        # one each, to expand and again to combine, and the 49 leaves
        (True, 2 * (4 + 7) + 49)])
    def test_fixed_costs_are_charged_per_product_and_task(
            self, use_machine, monkeypatch, fused, tasks):
        from repro.codegen import cbackend

        monkeypatch.setattr(cbackend, "available", lambda: fused)
        alg = get_algorithm("strassen")
        use_machine()
        seq = plan_cost(alg, 1024, 1024, 1024, 2)
        bfs = plan_cost(alg, 1024, 1024, 1024, 2, scheme="bfs", threads=4)
        use_machine(call_s=1e-5, task_s=1e-4)
        assert plan_cost(alg, 1024, 1024, 1024, 2) == pytest.approx(
            seq + (7 + 49) * 1e-5)
        assert plan_cost(alg, 1024, 1024, 1024, 2, scheme="bfs",
                         threads=4) == pytest.approx(
            bfs + (7 + 49) * 1e-5 + tasks * 1e-4)

    def test_parallel_traffic_baselines_are_free(self):
        from repro.core.cost import parallel_traffic

        alg = get_algorithm("strassen")
        # sequential/DFS reuse one S/T/M_r triple per level: zero extra
        for scheme in ("sequential", "dfs"):
            assert parallel_traffic(alg, 1024, 1024, 1024, 2,
                                    scheme=scheme, threads=4) == 0.0
        # no parallel expansion without threads or steps
        assert parallel_traffic(alg, 1024, 1024, 1024, 2, "bfs", 1) == 0.0
        assert parallel_traffic(alg, 1024, 1024, 1024, 0, "bfs", 4) == 0.0
        assert parallel_traffic(None, 1024, 1024, 1024, 2, "bfs", 4) == 0.0

    def test_bfs_traffic_follows_section_4_2_factor(self):
        from repro.core.cost import parallel_traffic

        alg = get_algorithm("strassen")  # R/(MN) = 7/4 per level
        one = parallel_traffic(alg, 1024, 1024, 1024, 1, "bfs", 4)
        assert one == pytest.approx(2.0 * (7 / 4) * 1024 * 1024)
        two = parallel_traffic(alg, 1024, 1024, 1024, 2, "bfs", 4)
        assert two == pytest.approx(one + 2.0 * (7 / 4) ** 2 * 1024 * 1024)

    def test_plan_cost_charges_communication(self):
        """On the same four threads bfs pays its Section 4.2 pools (and
        a 13th wave for 49 leaves) over dfs, which has neither."""
        alg = get_algorithm("strassen")
        dfs = plan_cost(alg, 1024, 1024, 1024, 2, scheme="dfs", threads=4)
        bfs = plan_cost(alg, 1024, 1024, 1024, 2, scheme="bfs", threads=4)
        assert bfs > dfs


class TestEnumeration:
    def test_contains_dgemm_baseline(self):
        plans = tuner.enumerate_plans(512, 512, 512)
        assert any(pl.is_dgemm for pl in plans)

    def test_small_problems_only_dgemm(self):
        plans = tuner.enumerate_plans(32, 32, 32)
        assert all(pl.is_dgemm for pl in plans)

    def test_sorted_by_model_cost(self):
        # rank with the same model dispatch uses
        plans = [pl for pl in tuner.enumerate_plans(1024, 1024, 1024)
                 if not pl.is_dgemm]
        costs = [plan_cost(get_algorithm(pl.algorithm), 1024, 1024, 1024,
                           pl.steps) for pl in plans]
        assert costs == sorted(costs)

    def test_max_candidates_keeps_baseline(self):
        plans = tuner.enumerate_plans(1024, 1024, 1024, max_candidates=3)
        assert len(plans) == 3
        assert any(pl.is_dgemm for pl in plans)

    def test_every_scheme_enumerated(self):
        """Ranking, not slicing, decides the schemes' order: all three
        appear in the parallel space, and none in the sequential one."""
        from repro.parallel.schedules import SCHEMES

        plans = tuner.enumerate_plans(1024, 1024, 1024, threads=4)
        schemes = {pl.scheme for pl in plans if not pl.is_dgemm}
        assert schemes == set(SCHEMES)
        for pl in tuner.enumerate_plans(1024, 1024, 1024, threads=1):
            assert pl.scheme in ("sequential",) or pl.is_dgemm

    def test_all_plans_resolve_and_describe(self):
        for pl in tuner.enumerate_plans(1024, 416, 1024):
            assert pl.describe()
            if not pl.is_dgemm:
                get_algorithm(pl.algorithm)  # must not raise


class TestPlanCache:
    @pytest.mark.parametrize("legacy", [False, True],
                             ids=["current", "strategy-key"])
    def test_save_load_roundtrip(self, cache, legacy):
        pl = Plan(algorithm="strassen", steps=2)
        cache.put(512, 512, 512, "float64", 1, pl, seconds=0.5, gflops=1.0)
        cache.save()
        if legacy:  # a v6 file from when plans named an addition strategy
            raw = json.loads(cache.path.read_text())
            assert raw["schema"] == 6
            for ent in raw["entries"].values():
                ent["plan"]["strategy"] = "streaming"
            cache.path.write_text(json.dumps(raw))
        fresh = PlanCache(cache.path)
        assert fresh.get(512, 512, 512, "float64", 1) == pl
        ent = fresh.entry(512, 512, 512, "float64", 1)
        assert ent["gflops"] == 1.0

    def test_miss_returns_none(self, cache):
        assert cache.get(100, 100, 100) is None

    def test_schema_mismatch_ignored(self, cache):
        cache.path.parent.mkdir(parents=True, exist_ok=True)
        cache.path.write_text(json.dumps({
            "schema": tuner.SCHEMA_VERSION + 1,
            "entries": {problem_key(512, 512, 512, "float64", 1):
                        {"plan": Plan().to_dict()}},
        }))
        assert len(PlanCache(cache.path)) == 0
        assert PlanCache(cache.path).get(512, 512, 512) is None

    def test_corrupt_file_ignored(self, cache):
        cache.path.parent.mkdir(parents=True, exist_ok=True)
        cache.path.write_text("{ not json")
        assert PlanCache(cache.path).get(512, 512, 512) is None

    def test_save_rewrites_current_schema(self, cache):
        cache.put(256, 256, 256, "float64", 1, Plan())
        cache.save()
        raw = json.loads(cache.path.read_text())
        assert raw["schema"] == tuner.SCHEMA_VERSION

    def test_nearest_shape_fallback(self, cache):
        pl = Plan(algorithm="s424", steps=1)
        cache.put(1000, 400, 1000, "float64", 1, pl)
        assert cache.nearest(1100, 380, 1080, "float64", 1) == pl
        # different dtype or thread count never matches
        assert cache.nearest(1100, 380, 1080, "float32", 1) is None
        assert cache.nearest(1100, 380, 1080, "float64", 8) is None

    def test_nearest_respects_radius(self, cache):
        cache.put(4096, 4096, 4096, "float64", 1, Plan(algorithm="strassen",
                                                       steps=3))
        assert cache.nearest(256, 256, 256, "float64", 1) is None

    def test_nearest_skips_an_entry_that_does_not_parse(self, cache):
        """The closest tuned shape holds a plan that no longer parses: the
        scan passes over it to the valid one further out, in radius."""
        good = Plan(algorithm="winograd", steps=1)
        cache.put(260, 260, 260, "float64", 1, good)
        cache.put(200, 200, 200, "float64", 1, Plan(algorithm="strassen",
                                                     steps=1))
        cache.save()
        raw = json.loads(cache.path.read_text())
        raw["entries"][problem_key(200, 200, 200, "float64", 1)]["plan"][
            "scheme"] = "magic"
        cache.path.write_text(json.dumps(raw))
        assert PlanCache(cache.path).nearest(210, 210, 210, "float64",
                                             1) == good


class TestDispatchResolution:
    def test_trivial_small_problems_use_dgemm(self, cache):
        plan, source = tuner.get_plan(64, 64, 64, threads=1, cache=cache)
        assert source == "trivial" and plan.is_dgemm

    def test_cache_hit_is_deterministic(self, cache):
        pinned = Plan(algorithm="winograd", steps=2)
        cache.put(640, 640, 640, "float64", 1, pinned)
        for _ in range(3):
            plan, source = tuner.get_plan(640, 640, 640, threads=1, cache=cache)
            assert (plan, source) == (pinned, "cache")

    def test_nearest_fallback_on_near_miss(self, cache):
        pinned = Plan(algorithm="strassen", steps=1)
        cache.put(600, 600, 600, "float64", 1, pinned)
        plan, source = tuner.get_plan(620, 600, 640, threads=1, cache=cache)
        assert (plan, source) == (pinned, "nearest")

    def test_cost_model_fallback_on_miss(self, cache):
        plan, source = tuner.get_plan(768, 768, 768, threads=1, cache=cache)
        assert source == "model"
        assert not plan.is_dgemm  # at this size the model expects a win
        assert plan == tuner.enumerate_plans(768, 768, 768)[0]

    def test_model_stage_ranks_a_shape_once(self, cache, monkeypatch):
        """The model stage is memoised: a second lookup of the same shape
        on an empty cache scores nothing."""
        from repro.tuner import space

        scored = []

        def counting(*args, **kwargs):
            scored.append(args)
            return plan_cost(*args, **kwargs)

        monkeypatch.setattr(space, "plan_cost", counting)
        first = tuner.get_plan(776, 552, 1000, threads=1, cache=cache)
        ranked = len(scored)
        assert ranked > 1 and first[1] == "model"
        assert tuner.get_plan(776, 552, 1000, threads=1, cache=cache) == first
        assert tuner.get_policy("never").select(
            776, 552, 1000, "float64", 1, cache) == first
        assert len(scored) == ranked
        # another thread count, dtype or calibration is another ranking
        tuner.get_plan(776, 552, 1000, threads=2, cache=cache)
        assert len(scored) > ranked

    def test_quarantined_head_of_memoised_ranking_is_skipped(self, cache):
        head, second = tuner.enumerate_plans(768, 768, 768)[:2]
        assert tuner.get_plan(768, 768, 768, threads=1, cache=cache)[0] == head
        for _ in range(2):
            cache.record_failure(768, 768, 768, "float64", 1, head, "test")
        assert tuner.get_plan(768, 768, 768, threads=1,
                              cache=cache) == (second, "model")
        cache.record_success(768, 768, 768, "float64", 1, head)
        assert tuner.get_plan(768, 768, 768, threads=1, cache=cache)[0] == head


class TestMatmulCorrectness:
    @pytest.mark.parametrize("shape", [(300, 200, 260), (643, 389, 511)])
    def test_matches_numpy_float64(self, cache, shape):
        p, q, r = shape
        A = random_matrix(p, q, 0)
        B = random_matrix(q, r, 1)
        C = tuner.matmul(A, B, threads=1, cache=cache)
        np.testing.assert_allclose(C, A @ B, atol=1e-9)

    def test_matches_numpy_float32(self, cache):
        A = random_matrix(500, 330, 2, dtype=np.float32)
        B = random_matrix(330, 470, 3, dtype=np.float32)
        C = tuner.matmul(A, B, threads=1, cache=cache)
        assert C.dtype == np.float32
        rel = np.linalg.norm(C - A @ B) / np.linalg.norm(A @ B)
        assert rel < 1e-4

    @pytest.mark.parametrize("dtype,tol", [("float64", 1e-9),
                                           ("float32", 2e-3)])
    def test_executes_cached_plan(self, cache, dtype, tol):
        """A planted cache entry is what actually runs (and stays correct
        on a non-power-of-two shape via dynamic peeling), in the operands'
        dtype."""
        pinned = Plan(algorithm="s424", steps=2, scheme="sequential")
        cache.put(520, 260, 520, dtype, 1, pinned)
        A = random_matrix(520, 260, 4, dtype=dtype)
        B = random_matrix(260, 520, 5, dtype=dtype)
        C = tuner.matmul(A, B, threads=1, cache=cache)
        assert C.dtype == dtype
        np.testing.assert_allclose(C, A @ B, rtol=tol, atol=tol)

    def test_rejects_bad_tune_mode(self, cache):
        A = random_matrix(8, 8, 0)
        with pytest.raises(ValueError):
            tuner.matmul(A, A, cache=cache, tune="sometimes")


class TestTuneShape:
    def test_tunes_and_caches_winner(self, cache):
        rep = tuner.tune_shape(
            192, 192, 192, threads=1, budget_s=3.0, trials=1, max_candidates=2,
            cache=cache, persist=True,
        )
        assert rep.measurements
        assert any(m.plan.is_dgemm for m in rep.measurements)
        cached = PlanCache(cache.path).get(192, 192, 192, "float64", 1)
        assert cached == rep.best.plan
        # dispatch now resolves from the cache, deterministically
        plan, source = tuner.get_plan(192, 192, 192, threads=1, cache=cache)
        assert source in ("cache", "trivial")

    def test_report_rows_render(self, cache):
        rep = tuner.tune_shape(160, 160, 160, threads=1, budget_s=2.0, trials=1,
                               max_candidates=2, cache=cache, persist=False)
        rows = rep.rows()
        assert len(rows) == len(rep.measurements)
        assert any("winner" in row.detail for row in rows)


class TestBlasThreadGuard:
    """The tuner sweeps thread counts in-process: the BLAS thread context
    must never leak global state (satellite fix in parallel/blas.py)."""

    def test_nested_contexts_restore(self):
        from repro.parallel import blas

        before = blas.get_threads()
        with blas.blas_threads(1):
            with blas.blas_threads(2):
                pass
            assert blas.get_threads() in (1, before)  # uncontrollable: no-op
        assert blas.get_threads() == before

    def test_zero_and_none_are_safe(self):
        from repro.parallel import blas

        before = blas.get_threads()
        with blas.blas_threads(0):
            assert blas.get_threads() >= 1
        with blas.blas_threads(None):
            pass
        assert blas.get_threads() == before


class TestNearestTieBreak:
    """Regression: ``nearest`` used ``<=`` while scanning an unsorted
    dict, so equidistant tuned shapes resolved to whichever the cache
    file happened to list last -- identical calls on identically-stocked
    caches could pick different plans."""

    def test_equidistant_entries_resolve_deterministically(self, tmp_path):
        # 500 * 720 == 600**2: both entries are exactly log(6/5) from the
        # query in log-dimension space
        a = Plan(algorithm="strassen", steps=1)
        b = Plan(algorithm="winograd", steps=1)
        winners = []
        for order in ((("a", a, 500), ("b", b, 720)),
                      (("b", b, 720), ("a", a, 500))):
            cache = PlanCache(tmp_path / f"plans_{order[0][0]}.json")
            for _, plan, m in order:
                cache.put(m, 600, 600, "float64", 1, plan)
            winners.append(cache.nearest(600, 600, 600, "float64", 1))
        assert winners[0] == winners[1]
        # sorted key order: "500x..." precedes "720x..."
        assert winners[0] == a

    def test_strictly_closer_still_displaces(self, tmp_path):
        cache = PlanCache(tmp_path / "plans.json")
        far = Plan(algorithm="winograd", steps=2)
        near = Plan(algorithm="strassen", steps=1)
        cache.put(500, 600, 600, "float64", 1, far)
        cache.put(620, 600, 600, "float64", 1, near)
        assert cache.nearest(600, 600, 600, "float64", 1) == near


class TestAnswerMemo:
    """``get`` and ``nearest`` answers are memoised per query; every
    change to the entries forgets them, so no answer outlives the entries
    it was computed from."""

    S1 = Plan(algorithm="strassen", steps=1)
    S2 = Plan(algorithm="winograd", steps=1)

    def test_repeat_answers_are_the_parsed_plan_once(self, cache,
                                                     monkeypatch):
        cache.put(600, 600, 600, "float64", 1, self.S1)
        parses = []
        real = Plan.from_dict.__func__
        monkeypatch.setattr(Plan, "from_dict", classmethod(
            lambda cls, d: parses.append(d) or real(cls, d)))
        got = {cache.get(600, 600, 600, "float64", 1) for _ in range(5)}
        near = {cache.nearest(620, 600, 600, "float64", 1) for _ in range(5)}
        assert got == near == {self.S1}
        assert len(parses) == 2  # one per distinct query, not per lookup

    def test_put_of_a_closer_shape_changes_nearest(self, cache):
        cache.put(500, 600, 600, "float64", 1, self.S1)
        assert cache.nearest(600, 600, 600, "float64", 1) == self.S1
        cache.put(620, 600, 600, "float64", 1, self.S2)
        assert cache.nearest(600, 600, 600, "float64", 1) == self.S2

    def test_put_over_a_key_changes_get(self, cache):
        cache.put(600, 600, 600, "float64", 1, self.S1)
        assert cache.get(600, 600, 600, "float64", 1) == self.S1
        cache.put(600, 600, 600, "float64", 1, self.S2)
        assert cache.get(600, 600, 600, "float64", 1) == self.S2

    @pytest.mark.parametrize("change", ["drop", "invalidate", "clear"])
    def test_removals_change_get_and_nearest(self, cache, change):
        cache.put(600, 600, 600, "float64", 1, self.S1)
        assert cache.get(600, 600, 600, "float64", 1) == self.S1
        assert cache.nearest(620, 600, 600, "float64", 1) == self.S1
        if change == "drop":
            assert cache.drop(problem_key(600, 600, 600, "float64", 1))
        elif change == "invalidate":
            assert cache.invalidate(stale_only=False)
        else:
            cache.clear()
        assert cache.get(600, 600, 600, "float64", 1) is None
        assert cache.nearest(620, 600, 600, "float64", 1) is None

    def test_load_of_another_caches_file_changes_answers(self, cache):
        cache.put(600, 600, 600, "float64", 1, self.S1)
        assert cache.get(600, 600, 600, "float64", 1) == self.S1
        assert cache.nearest(1200, 1200, 1200, "float64", 1) is None
        other = PlanCache(cache.path)
        other.put(600, 600, 600, "float64", 1, self.S2)
        other.put(1190, 1200, 1200, "float64", 1, self.S1)
        assert other.save()
        cache.load()
        assert cache.get(600, 600, 600, "float64", 1) == self.S2
        assert cache.nearest(1200, 1200, 1200, "float64", 1) == self.S1

    def test_no_stale_answer_survives_concurrent_lookups(self, cache):
        """Readers racing a writer: an answer computed from entries a
        ``put`` replaced must never be stored after that put, so the
        writer always reads back what it just wrote."""
        import sys
        import threading

        plans = [Plan(algorithm="strassen", steps=s, threads=t)
                 for s in (1, 2) for t in (1, 2, 3)]
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                cache.get(600, 600, 600, "float64", 1)
                cache.nearest(620, 600, 600, "float64", 1)

        stale = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for th in readers:
                th.start()
            for i in range(3000):
                plan = plans[i % len(plans)]
                cache.put(600, 600, 600, "float64", 1, plan)
                if (cache.get(600, 600, 600, "float64", 1) != plan
                        or cache.nearest(620, 600, 600, "float64",
                                         1) != plan):
                    stale.append(i)
        finally:
            stop.set()
            for th in readers:
                th.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in readers)
        assert stale == []

    def test_resolution_sees_a_put_after_a_model_answer(self, cache):
        assert tuner.get_plan(640, 640, 640, threads=1,
                              cache=cache)[1] == "model"
        cache.put(640, 640, 640, "float64", 1, self.S2)
        assert tuner.get_plan(640, 640, 640, threads=1,
                              cache=cache) == (self.S2, "cache")


class TestThreadsValidation:
    """Regression: ``threads=0`` silently meant "all cores" through
    ``threads or available_cores()`` expressions at every entry point,
    masking caller bugs; only ``None`` carries that meaning now."""

    def test_get_plan_rejects_zero(self, cache):
        with pytest.raises(ValueError, match="threads"):
            tuner.get_plan(256, 256, 256, threads=0, cache=cache)

    def test_matmul_rejects_zero(self, cache):
        A = random_matrix(64, 64, 0)
        with pytest.raises(ValueError, match="threads"):
            tuner.matmul(A, A, threads=0, cache=cache)

    def test_tune_shape_rejects_zero(self, cache):
        with pytest.raises(ValueError, match="threads"):
            tuner.tune_shape(128, 128, 128, threads=0, cache=cache)

    def test_tune_rejects_zero(self, cache):
        from repro.tuner import measure

        with pytest.raises(ValueError, match="threads"):
            measure.tune([(128, 128, 128)], threads=0, cache=cache)

    @pytest.mark.parametrize("threads", [np.int64(1), np.int32(1),
                                         np.uint8(1)])
    def test_numpy_integers_are_thread_counts(self, cache, threads):
        from repro.tuner import measure

        A = random_matrix(64, 64, 0)
        np.testing.assert_array_equal(
            tuner.matmul(A, A, threads=threads, cache=cache), A @ A)
        C = tuner.matmul_batched(A[None], A[None], threads=threads,
                                 cache=cache)
        np.testing.assert_array_equal(C[0], A @ A)
        (report,) = measure.tune([(64, 64, 64)], threads=threads,
                                 cache=cache, trials=1, max_candidates=1,
                                 persist=False)
        assert report.best.plan.threads == 1
        assert type(report.best.plan.threads) is int

    @pytest.mark.parametrize("bad", [True, np.True_, 0, np.int64(0), 2.0])
    def test_bools_zero_and_floats_still_raise(self, cache, bad):
        from repro.tuner import measure

        A = random_matrix(64, 64, 0)
        with pytest.raises(ValueError, match="threads"):
            tuner.matmul(A, A, threads=bad, cache=cache)
        with pytest.raises(ValueError, match="threads"):
            tuner.matmul_batched(A[None], A[None], threads=bad, cache=cache)
        with pytest.raises(ValueError, match="threads"):
            measure.tune([(64, 64, 64)], threads=bad, cache=cache)

    def test_none_still_means_all_cores(self, cache):
        from repro.parallel.pool import available_cores

        plan, _ = tuner.get_plan(64, 64, 64, threads=None, cache=cache)
        assert plan.threads == available_cores()


class TestSharedPoolConstruction:
    """Regression: ``_shared_pool`` used to spawn the pool's OS threads
    *inside* ``_dispatch_lock``, stalling every concurrent dispatcher for
    the duration of pool startup."""

    def test_pool_constructed_outside_dispatch_lock(self, monkeypatch):
        from repro.parallel import pool as pool_mod
        from repro.tuner import dispatch

        dispatch.shutdown_shared_pools()
        observed = []
        real_init = pool_mod.WorkerPool.__init__

        def probing_init(self, workers=None):
            # if construction ran under the lock, this acquire would fail
            free = dispatch._dispatch_lock.acquire(blocking=False)
            if free:
                dispatch._dispatch_lock.release()
            observed.append(free)
            real_init(self, workers)

        monkeypatch.setattr(pool_mod.WorkerPool, "__init__", probing_init)
        monkeypatch.setattr(dispatch, "WorkerPool", pool_mod.WorkerPool)
        try:
            got = dispatch._shared_pool(2)
            assert got is dispatch._shared_pool(2)  # cached on re-entry
            assert observed == [True]
        finally:
            dispatch.shutdown_shared_pools()

    def test_construction_race_loser_is_shut_down(self, monkeypatch):
        from repro.parallel import pool as pool_mod
        from repro.tuner import dispatch

        dispatch.shutdown_shared_pools()
        rival = {}
        losers = []

        class RacingPool(pool_mod.WorkerPool):
            def __init__(self, workers=None):
                super().__init__(workers)
                losers.append(self)
                # the construction plants a rival in the registry,
                # simulating a dispatcher that won the race meanwhile
                if "pool" not in rival:
                    rival["pool"] = pool_mod.WorkerPool(workers)
                    with dispatch._dispatch_lock:
                        dispatch._pools[self.workers] = rival["pool"]

        monkeypatch.setattr(dispatch, "WorkerPool", RacingPool)
        try:
            got = dispatch._shared_pool(2)
            assert got is rival["pool"]  # the loser was discarded...
            # ...and shut down: its executor must reject new work
            assert len(losers) == 1
            with pytest.raises(RuntimeError):
                losers[0].submit(lambda: None)
        finally:
            dispatch.shutdown_shared_pools()
