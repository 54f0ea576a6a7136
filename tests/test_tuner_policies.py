"""Tests for the fingerprinted plan cache, measurement determinism, the
one ``tune`` vocabulary, and the hardened CLI paths (``repro tune``,
``repro cache``)."""

import json

import numpy as np
import pytest
from conftest import run_cli

from repro import cli, tuner
from repro.bench.machine import fingerprint_digest, machine_fingerprint
from repro.tuner import measure
from repro.tuner.cache import PlanCache, problem_key
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

    def test_cli_show_renders_pprime(self, tmp_path):
        """Parallel entries render their scheme and explicit P'."""
        path = tmp_path / "plans.json"
        cache = PlanCache(path)
        cache.put(512, 512, 512, "float64", 4,
                  Plan(algorithm="strassen", steps=2,
                       scheme="hybrid-subgroup", threads=4, subgroup=2))
        cache.save()
        rc, text = run_cli("cache", "show", "--cache", str(path))
        assert rc == 0
        assert "hybrid-subgroup" in text and "P'=2" in text


# -------------------------------------------------------- trivial threshold
def test_float32_fast_path_starts_earlier(cache):
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

    def test_tune_has_one_way_to_learn(self):
        """`repro tune` measures offline; asking it for an in-call
        exploration policy is a parse error."""
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(["tune", "--policy", "online"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tune", ["sometimes", "online", "ucb", None])
    def test_bad_tune_mode_in_api(self, cache, tune):
        """``matmul`` and ``matmul_batched`` take the same three names and
        refuse anything else with the same error."""
        A = np.zeros((8, 8))
        stack = np.zeros((2, 8, 8))
        errors = []
        for call in (lambda: tuner.matmul(A, A, cache=cache, tune=tune),
                     lambda: tuner.matmul_batched(stack, stack, cache=cache,
                                                  tune=tune)):
            with pytest.raises(ValueError, match="tune must be") as exc:
                call()
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

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