"""The compiled serving path: backend="compiled" plans end to end.

Covers the tentpole (dispatchable, arena-aware C backend: plan field,
cost model, workspace sizing, execute path, guard degradation) and the
compile-cache bug sweep satellites: fingerprint-keyed ``.so`` caching,
atomic writes, per-user cache dir with in-memory degradation, and the
locked library cache under concurrent first compiles.

Everything that needs a real compiler is behind ``needs_cc``; hosts
without one must skip cleanly *and* never see a compiled candidate from
the tuner, which the no-compiler tests prove by stubbing the probe.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import multiply_reference, obs
from repro.algorithms import get_algorithm
from repro.codegen import cbackend
from repro.core.cost import plan_cost
from repro.core.stability import error_bound
from repro.core.workspace import Workspace, cbackend_footprint
from repro.guard import faults
from repro.tuner import dispatch, measure
from repro.tuner.cache import PlanCache
from repro.tuner.space import (
    PLAN_BACKENDS,
    Plan,
    enumerate_plans,
    retarget_backend,
)

HAVE_CC = cbackend.available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C compiler")


def _operands(p, q, r, dtype="float64", seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, q)).astype(dtype)
    B = rng.standard_normal((q, r)).astype(dtype)
    return A, B


def _probe_src(tag: str) -> str:
    """A tiny valid unit unique per tag, so tests control cache misses."""
    return f"/* {tag} */\nvoid repro_probe_{tag}(void) {{}}\n"


# ---------------------------------------------------------------- plan field
class TestPlanBackend:
    def test_backend_default_and_describe(self):
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential")
        assert plan.backend == "numpy"
        assert "[cc]" not in plan.describe()
        cc = Plan(algorithm="strassen", steps=1, scheme="sequential",
                  backend="compiled")
        assert cc.describe().endswith("[cc]")

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            Plan(algorithm="strassen", steps=1, backend="fortran")
        with pytest.raises(ValueError):
            Plan(backend="compiled")  # dgemm has no chains to compile
        with pytest.raises(ValueError):
            Plan(algorithm="strassen", steps=1, scheme="bfs",
                 backend="compiled")

    def test_retarget_backend(self):
        plan = Plan(algorithm="strassen", steps=2, scheme="sequential")
        cc = retarget_backend(plan, "compiled")
        assert cc.backend == "compiled" and cc.algorithm == plan.algorithm
        assert retarget_backend(cc, "numpy") == plan
        assert retarget_backend(plan, "numpy") is plan
        with pytest.raises(ValueError):
            retarget_backend(Plan(), "compiled")
        with pytest.raises(ValueError):
            retarget_backend(plan, "cuda")

    def test_backend_round_trips_through_plan_cache(self, tmp_path):
        cache = PlanCache(tmp_path / "plans.json")
        plan = Plan(algorithm="strassen", steps=2, scheme="sequential",
                    backend="compiled")
        cache.put(512, 512, 512, "float64", 1, plan, seconds=0.5)
        cache.save()
        got = PlanCache(cache.path).get(512, 512, 512, "float64", 1)
        assert got == plan and got.backend == "compiled"
        # pre-v6 entries carry no backend field and resolve to numpy
        legacy = dict(plan.to_dict())
        legacy.pop("backend")
        assert Plan.from_dict(legacy).backend == "numpy"

    def test_compiled_cost_discounts_additions_only(self, use_machine):
        """One fused pass per chain against one pass per term: the same
        plan never costs more compiled, and by exactly the traffic saved
        (strassen: 50 block passes a level instead of 90)."""
        use_machine(gflops=10.0, add_gbs=20.0, call_s=2e-6)
        for name in ("strassen", "s424", "s333"):
            alg = get_algorithm(name)
            for steps in (1, 2):
                base = plan_cost(alg, 512, 512, 512, steps)
                cc = plan_cost(alg, 512, 512, 512, steps, backend="compiled")
                assert cc <= base
        alg = get_algorithm("strassen")
        saved = (90 - 50) * 256 * 256 * 8 / 20e9
        assert plan_cost(alg, 512, 512, 512, 1) - plan_cost(
            alg, 512, 512, 512, 1, backend="compiled") == pytest.approx(saved)
        # dgemm has no additions to discount
        assert plan_cost(None, 512, 512, 512, 0) == \
            plan_cost(None, 512, 512, 512, 0, backend="compiled")

    def test_compiled_float32_is_scored_in_double(self, use_machine,
                                                  monkeypatch):
        """The C kernels compute in float64 whatever the operands are, so
        a float32 compiled plan runs dgemm leaves, not sgemm ones: it is
        priced from the float64 calibration alone."""
        import repro.bench.machine as machine

        source, asked = use_machine(), []
        monkeypatch.setattr(
            machine, "calibration", lambda dtype, threads, volume:
            asked.append(dtype) or source(dtype, threads))
        alg = get_algorithm("strassen")
        plan_cost(alg, 512, 512, 512, 1, backend="compiled", dtype="float32")
        assert set(asked) == {"float64"}
        plan_cost(alg, 512, 512, 512, 1, dtype="float32")
        assert "float32" in asked


# ---------------------------------------------------------------- .so cache
class TestCompileCache:
    def test_key_covers_source_compiler_flags_fingerprint(self, monkeypatch):
        src = _probe_src("keying")
        keys = {cbackend._source_key(src)}
        keys.add(cbackend._source_key(src + "\n"))
        monkeypatch.setattr(cbackend, "_CC", "some-other-cc")
        keys.add(cbackend._source_key(src))
        monkeypatch.undo()
        monkeypatch.setattr(cbackend, "_CFLAGS", ["-O0"])
        keys.add(cbackend._source_key(src))
        monkeypatch.undo()
        import repro.bench.machine as machine

        monkeypatch.setattr(machine, "fingerprint_digest",
                            lambda: "another-machine")
        keys.add(cbackend._source_key(src))
        # every perturbation must produce a distinct key: a .so built by
        # another compiler/flags/machine is never reused
        assert len(keys) == 5

    def test_key_covers_isa_flags(self, monkeypatch, tmp_path,
                                  real_calibration):
        """Regression: the objects are built ``-march=native`` but the
        fingerprint recorded only the CPU model string, so two VMs with
        one model name and different AVX levels shared a key (and, under
        a shared ``REPRO_CACHE_DIR``, an illegal-instruction crash).  The
        calibration files are keyed the same way."""
        import repro.bench.machine as machine

        monkeypatch.setattr(machine, "measure_calibration",
                            lambda dtype, threads: machine.Calibration(
                                dtype, threads,
                                machine.GemmCurve([64], [1.0]), 1.0, 0.0, 0.0))
        src = _probe_src("isa")
        keys, digests = set(), set()
        for flags in ("fma avx2", "fma avx2 avx512f"):
            monkeypatch.setattr(machine, "_isa_flags", lambda f=flags: f)
            machine.machine_fingerprint.cache_clear()
            machine._calibrations.clear()
            try:
                keys.add(cbackend._source_key(src))
                digests.add(machine.fingerprint_digest())
                real_calibration("float64", 1)
            finally:
                machine.machine_fingerprint.cache_clear()
        assert len(keys) == 2 and len(digests) == 2
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
            f"calibration-{d}-float64-1t.json" for d in digests)

    @needs_cc
    def test_cache_dir_env_honored_and_writes_atomic(
            self, tmp_path, monkeypatch, fresh_cache_state):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = _probe_src("atomic")
        lib = cbackend._compile_source(src)
        cache = tmp_path / "cbackend"
        names = sorted(p.name for p in cache.iterdir())
        assert any(n.endswith(".so") for n in names)
        assert any(n.endswith(".c") for n in names)
        # regression: interrupted/competing builds used to leave partial
        # files the next process could dlopen -- only final names may exist
        assert not any(".tmp" in n for n in names), names
        assert cbackend._compile_source(src) is lib

    @needs_cc
    def test_second_process_reuses_disk_cache_without_compiling(
            self, tmp_path, monkeypatch, fresh_cache_state):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = _probe_src("reuse")
        cbackend._compile_source(src)
        # simulate a fresh process: drop the in-memory handle, keep disk
        with cbackend._lib_lock:
            cbackend._LIB_CACHE.clear()

        def no_compile(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("compiler invoked despite a cached .so")

        monkeypatch.setattr(cbackend.subprocess, "run", no_compile)
        assert cbackend._compile_source(src) is not None

    @needs_cc
    def test_unwritable_cache_dir_degrades_in_memory(
            self, tmp_path, monkeypatch, fresh_cache_state):
        # the cache root's parent is a *file*, so mkdir fails even for
        # root (chmod-based unwritability does not bind uid 0)
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("in the way")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "sub"))
        with pytest.warns(RuntimeWarning, match="not writable"):
            lib = cbackend._compile_source(_probe_src("degraded"))
        assert lib is not None
        with cbackend._lib_lock:
            assert cbackend._CACHE_STATE["dir"] is None
        # warn-once: the second compile stays quiet
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            cbackend._compile_source(_probe_src("degraded2"))

    @needs_cc
    def test_concurrent_first_compiles_converge(
            self, tmp_path, monkeypatch, fresh_cache_state):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        src = _probe_src("race")
        n = 6
        libs: list = [None] * n
        barrier = threading.Barrier(n)

        def worker(i):
            barrier.wait()
            libs[i] = cbackend._compile_source(src)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(lib is libs[0] and lib is not None for lib in libs)
        names = [p.name for p in (tmp_path / "cbackend").iterdir()]
        assert not any(".tmp" in n_ for n_ in names), names


# ---------------------------------------------------------------- dispatch
@needs_cc
class TestCompiledDispatch:
    def test_enumerate_includes_compiled_twins(self):
        plans = enumerate_plans(384, 384, 384, threads=1)
        compiled = [p for p in plans if p.backend == "compiled"]
        assert compiled
        assert all(p.scheme == "sequential" and not p.is_dgemm
                   for p in compiled)
        # threaded schedules never get compiled twins
        assert all(p.backend == "numpy"
                   for p in enumerate_plans(1024, 1024, 1024, threads=8)
                   if p.scheme != "sequential")

    def test_execute_plan_compiled_matches_numpy(self):
        plan = Plan(algorithm="strassen", steps=2, scheme="sequential",
                    threads=1, backend="compiled")
        A, B = _operands(200, 176, 144, seed=1)
        ws = dispatch.build_workspace(plan, 200, 176, 144, A.dtype, B.dtype)
        out = np.empty((200, 144))
        C = dispatch.execute_plan(plan, A, B, out=out, workspace=ws)
        assert C is out
        np.testing.assert_allclose(C, A @ B, atol=1e-10 * 176)
        assert ws.stats()["overflow_allocations"] == 0

    def test_compilefail_fault_degrades_not_fails(self, fresh_cache_state):
        """The in-band fallback is the interpreter: its bits, counted per
        call, in the same arena re-reserved for the Section 4.1 triple."""
        dispatch.reset_workspaces()
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1, backend="compiled")
        A, B = _operands(128, 128, 128, seed=3)
        ref = multiply_reference(A, B, get_algorithm("strassen"), steps=1)
        ws = dispatch.build_workspace(plan, 128, 128, 128, A.dtype, B.dtype)
        calls = 3
        before = faults.fired("cbackend.compilefail")
        obs.enable()
        obs.reset()
        try:
            with faults.inject("cbackend.compilefail"):
                for _ in range(calls):
                    C = dispatch.execute_plan(plan, A, B, workspace=ws)
                    assert np.array_equal(C, ref)
            assert obs.counter_value("cbackend.fallbacks") == calls
        finally:
            obs.disable()
            obs.reset()
        assert faults.fired("cbackend.compilefail") == before + calls
        assert ws.nbytes == dispatch.plan_footprint(
            Plan(algorithm="strassen", steps=1, threads=1), 128, 128, 128,
            A.dtype, B.dtype)
        assert 0 == ws.overflow_allocations < ws.high_water <= ws.nbytes

    def test_workspace_sized_by_cbackend_footprint(self):
        plan = Plan(algorithm="winograd", steps=2, scheme="sequential",
                    threads=1, backend="compiled")
        ws = dispatch.build_workspace(plan, 160, 160, 160,
                                      np.dtype("f8"), np.dtype("f8"))
        expect = cbackend_footprint(get_algorithm("winograd"), False,
                                    (160, 160, 160), "float64", 2)
        assert isinstance(ws, Workspace)
        assert ws.nbytes == expect

    def test_measure_plan_forces_warmup_for_compiled(self, monkeypatch):
        seen = {}

        def fake_median_time(fn, trials, warmup):
            seen["warmup"] = warmup
            fn()
            return 1.0

        monkeypatch.setattr(measure, "median_time", fake_median_time)
        A, B = _operands(128, 128, 128, seed=4)
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1, backend="compiled")
        measure.measure_plan(plan, A, B, trials=1, warmup=0)
        assert seen["warmup"] == 1  # compile/load never lands in a trial
        measure.measure_plan(dataclass_replace(plan, backend="numpy"),
                             A, B, trials=1, warmup=0)
        assert seen["warmup"] == 0


def dataclass_replace(plan, **kw):
    import dataclasses

    return dataclasses.replace(plan, **kw)


# ---------------------------------------------------------------- agreement
@needs_cc
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(
    p=st.integers(min_value=48, max_value=160),
    q=st.integers(min_value=48, max_value=160),
    r=st.integers(min_value=48, max_value=160),
    steps=st.integers(min_value=1, max_value=2),
    name=st.sampled_from(["strassen", "winograd", "s234"]),
    cse=st.booleans(),
    dtype=st.sampled_from(["float64", "float32"]),
)
def test_compiled_agrees_with_reference(p, q, r, steps, name, cse, dtype):
    """Compiled chains match the exact product within the a-priori
    stability bound, across dtypes, CSE, and non-divisible shapes (the
    dynamic-peeling path), honoring the ``np.result_type`` contract."""
    A, B = measure.tuning_operands(p, q, r, dtype=dtype, seed=7)
    cc = cbackend.compile_chains(name, cse=cse)
    C = cc.multiply(A, B, steps=steps)
    assert C.dtype == np.result_type(A, B)
    exact = A.astype("float64") @ B.astype("float64")
    denom = float(np.linalg.norm(exact)) or 1.0
    rel = float(np.linalg.norm(C.astype("float64") - exact)) / denom
    assert rel <= error_bound(get_algorithm(name), steps, q, dtype)


# ---------------------------------------------------------------- no compiler
class TestNoCompilerHost:
    def test_compiled_candidates_never_enumerated(self, monkeypatch):
        monkeypatch.setattr(cbackend, "available", lambda: False)
        plans = enumerate_plans(384, 384, 384, threads=1)
        assert plans and all(p.backend == "numpy" for p in plans)

    def test_compile_chains_raises_loud(self, monkeypatch):
        monkeypatch.setattr(cbackend, "available", lambda: False)
        with pytest.raises(RuntimeError, match="no working C compiler"):
            cbackend.compile_chains("strassen")

    def test_backends_constant(self):
        assert PLAN_BACKENDS == ("numpy", "compiled")
