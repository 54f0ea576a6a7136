"""The compiled serving path: the chain kernels serve by rule, end to end.

Covers the serving rule (no plan field: the cost model, workspace
sizing, execute path and guard degradation all follow
``cbackend.chains_fused``) and the compile-cache bug sweep satellites:
fingerprint-keyed ``.so`` caching, atomic writes, per-user cache dir with
in-memory degradation, and the locked library cache under concurrent
first compiles.

The cache tests need a real compiler (``needs_compiler``), the serving
tests the compiled step, that is a compiler and the vendor's cblas
(``needs_cc``); hosts without them must skip cleanly *and* price and run
the interpreter, which the no-compiler tests prove by stubbing the probe.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from conftest import HAVE_STEP, needs_cc, needs_compiler

from repro import multiply_reference, obs
from repro.algorithms import get_algorithm
from repro.codegen import cbackend
from repro.core import recursion
from repro.core.cost import plan_cost
from repro.core.workspace import Workspace, cbackend_footprint, dfs_footprint
from repro.guard import faults
from repro.tuner import dispatch, measure
from repro.tuner.cache import PlanCache
from repro.tuner.space import Plan, enumerate_plans


def _operands(p, q, r, dtype="float64", seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, q)).astype(dtype)
    B = rng.standard_normal((q, r)).astype(dtype)
    return A, B


def _probe_src(tag: str) -> str:
    """A tiny valid unit unique per tag, so tests control cache misses."""
    return f"/* {tag} */\nvoid repro_probe_{tag}(void) {{}}\n"


# ------------------------------------------------------------ the rule
class TestKernelsAreARule:
    def test_backend_is_accepted_and_ignored(self):
        """``backend`` survives for old callers only: it is no part of a
        plan's identity, its description or its validation."""
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential")
        cc = Plan(algorithm="strassen", steps=1, scheme="sequential",
                  backend="compiled")
        assert cc == plan and hash(cc) == hash(plan)
        assert cc.describe() == plan.describe() and "[cc]" not in (
            cc.describe())
        Plan(backend="compiled")        # dgemm: nothing to refuse any more
        Plan(algorithm="strassen", steps=1, scheme="bfs", threads=2,
             backend="compiled")

    def test_legacy_entries_round_trip_through_plan_cache(self, tmp_path):
        cache = PlanCache(tmp_path / "plans.json")
        plan = Plan(algorithm="strassen", steps=2, scheme="sequential",
                    backend="compiled")
        cache.put(512, 512, 512, "float64", 1, plan, seconds=0.5)
        cache.save()
        assert PlanCache(cache.path).get(512, 512, 512, "float64",
                                         1) == plan
        legacy = dict(plan.to_dict())
        legacy.pop("backend")
        assert Plan.from_dict(legacy) == plan

    @pytest.mark.parametrize("dtypes,fused", [
        (("float64", "float64"), True), (("float32", "float32"), True),
        (("float32", "float64"), True), (("float16", "float16"), False),
        (("float16", "float32"), False),
        (("int64", "int64"), False), (("int64", "float64"), False),
        (("complex128", "complex128"), False)])
    def test_chains_fused_admits_pairs_with_a_kernel_dtype(self, dtypes,
                                                           fused):
        assert cbackend.chains_fused(*dtypes) == (fused and HAVE_STEP)

    def test_fused_cost_discounts_additions_only(self, use_machine,
                                                 monkeypatch):
        """One fused pass per chain against one pass per term: the same
        plan never costs more with a compiler, and by exactly the traffic
        saved (strassen: 50 block passes a level instead of 90)."""
        use_machine(gflops=10.0, add_gbs=20.0, call_s=2e-6)

        def cost(compiler, *args, **kw):
            monkeypatch.setattr(cbackend, "available", lambda: compiler)
            return plan_cost(*args, **kw)
        for name in ("strassen", "s424", "s333"):
            alg = get_algorithm(name)
            for steps in (1, 2):
                assert cost(True, alg, 512, 512, 512, steps) <= cost(
                    False, alg, 512, 512, 512, steps)
        alg = get_algorithm("strassen")
        saved = (90 - 50) * 256 * 256 * 8 / 20e9
        assert cost(False, alg, 512, 512, 512, 1) - cost(
            True, alg, 512, 512, 512, 1) == pytest.approx(saved)
        # dgemm has no additions to discount
        assert cost(False, None, 512, 512, 512, 0) == cost(
            True, None, 512, 512, 512, 0)

    def test_float32_is_priced_at_its_own_precision(self, use_machine,
                                                    monkeypatch):
        """The float kernels run sgemm leaves on 4-byte slabs: a float32
        plan is priced from the float32 calibration alone, its additions
        at half the float64 traffic."""
        import repro.bench.machine as machine

        source, asked = use_machine(gflops=10.0, add_gbs=20.0), []
        monkeypatch.setattr(
            machine, "calibration", lambda dtype, threads, volume:
            asked.append(dtype) or source(dtype, threads))
        alg = get_algorithm("strassen")
        f32 = plan_cost(alg, 512, 512, 512, 1, dtype="float32")
        assert set(asked) == {"float32"}
        f64 = plan_cost(alg, 512, 512, 512, 1)
        passes = 50 if HAVE_STEP else 90
        assert f64 - f32 == pytest.approx(passes * 256 * 256 * 4 / 20e9)


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

    @needs_compiler
    def test_one_compiler_run_per_element_type(self, tmp_path, monkeypatch,
                                               fresh_cache_state):
        """Every tuner candidate, both element types, with and without
        CSE, on a cold cache: one library per element type, so at most
        two compiler runs."""
        from repro.tuner.space import candidate_algorithms

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        obs.enable()
        obs.reset()
        try:
            libs = {id(cbackend.compile_chains(name, cse, dtype).lib)
                    for name in candidate_algorithms()
                    for dtype in ("float32", "float64")
                    for cse in (False, True)}
            compiles = obs.counter_value("cbackend.compiles")
        finally:
            obs.disable()
            obs.reset()
        assert len(libs) == 2 and 1 <= compiles <= 2

    @needs_compiler
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

    @needs_compiler
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

    @needs_compiler
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

    @needs_compiler
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
    def test_enumerate_has_no_backend_twins(self):
        for threads in (1, 8):
            plans = enumerate_plans(1024, 1024, 1024, threads=threads)
            keys = [(p.algorithm, p.steps, p.scheme, p.threads)
                    for p in plans]
            assert len(keys) == len(set(keys)) and len(plans) > 1

    def test_execute_plan_runs_the_driver(self, monkeypatch):
        served = []
        real = cbackend.CompiledChains.multiply

        def spy(self, *args, **kw):
            served.append(self.real)
            return real(self, *args, **kw)
        monkeypatch.setattr(cbackend.CompiledChains, "multiply", spy)
        plan = Plan(algorithm="strassen", steps=2, scheme="sequential",
                    threads=1)
        A, B = _operands(200, 176, 144, seed=1)
        ws = dispatch.build_workspace(plan, 200, 176, 144, A.dtype, B.dtype)
        out = np.empty((200, 144))
        C = dispatch.execute_plan(plan, A, B, out=out, workspace=ws)
        assert C is out and served == ["double"]
        np.testing.assert_allclose(C, A @ B, atol=1e-10 * 176)
        assert ws.overflow_allocations == 0

    def test_other_dtypes_run_the_interpreter(self, monkeypatch):
        """Integers have no kernel dtype: the interpreter serves them, bit
        for bit, in the Section 4.1 arena."""
        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("the C driver served an integer product")
        monkeypatch.setattr(cbackend.CompiledChains, "multiply", boom)
        alg = get_algorithm("strassen")
        A = np.arange(96 * 80).reshape(96, 80) % 7
        B = np.arange(80 * 64).reshape(80, 64) % 5
        plan = Plan(algorithm="strassen", steps=2)
        ws = dispatch.build_workspace(plan, 96, 80, 64, A.dtype, B.dtype)
        assert ws.nbytes == dfs_footprint([alg.base_case] * 2, 96, 80, 64,
                                          A.dtype, B.dtype,
                                          algorithms=[alg] * 2)
        C = dispatch.execute_plan(plan, A, B, workspace=ws)
        assert np.array_equal(C, recursion.multiply(A, B, alg, steps=2))
        assert np.array_equal(C, A @ B)

    def test_compilefail_fault_degrades_not_fails(self, fresh_cache_state):
        """The in-band fallback is the interpreter: its bits, counted per
        call, in the same arena re-reserved for the Section 4.1 triple."""
        dispatch.reset_workspaces()
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        A, B = _operands(128, 128, 128, seed=3)
        alg = get_algorithm("strassen")
        ref = multiply_reference(A, B, alg, steps=1)
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
        assert ws.nbytes == dfs_footprint([alg.base_case], 128, 128, 128,
                                          A.dtype, B.dtype, algorithms=[alg])
        assert 0 == ws.overflow_allocations < ws.high_water <= ws.nbytes

    def test_workspace_sized_by_cbackend_footprint(self):
        plan = Plan(algorithm="winograd", steps=2, scheme="sequential",
                    threads=1)
        ws = dispatch.build_workspace(plan, 160, 160, 160,
                                      np.dtype("f8"), np.dtype("f8"))
        expect = cbackend_footprint(get_algorithm("winograd"), False,
                                    (160, 160, 160), "float64", 2)
        assert isinstance(ws, Workspace)
        assert ws.nbytes == expect

    def test_measure_plan_forces_warmup_for_fast_plans(self, monkeypatch):
        seen = {}

        def fake_median_time(fn, trials, warmup):
            seen["warmup"] = warmup
            fn()
            return 1.0

        monkeypatch.setattr(measure, "median_time", fake_median_time)
        A, B = _operands(128, 128, 128, seed=4)
        plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                    threads=1)
        measure.measure_plan(plan, A, B, trials=1, warmup=0)
        assert seen["warmup"] == 1  # compile/load never lands in a trial
        measure.measure_plan(Plan(threads=1), A, B, trials=1, warmup=0)
        assert seen["warmup"] == 0


# ---------------------------------------------------------------- no compiler
class TestNoCompilerHost:
    def test_the_interpreter_is_priced_and_served(self, monkeypatch):
        monkeypatch.setattr(cbackend, "available", lambda: False)
        alg = get_algorithm("strassen")
        assert not cbackend.chains_fused("float64")
        A, B = _operands(130, 130, 130, seed=6)
        plan = Plan(algorithm="strassen", steps=1)
        ws = dispatch.build_workspace(plan, 130, 130, 130, A.dtype, B.dtype)
        assert ws.nbytes == dfs_footprint([alg.base_case], 130, 130, 130,
                                          A.dtype, B.dtype, algorithms=[alg])
        C = dispatch.execute_plan(plan, A, B, workspace=ws)
        assert np.array_equal(C, recursion.multiply(A, B, alg, steps=1))

    def test_compile_chains_raises_loud(self, monkeypatch):
        monkeypatch.setattr(cbackend, "available", lambda: False)
        with pytest.raises(RuntimeError, match="no working C compiler"):
            cbackend.compile_chains("strassen")
