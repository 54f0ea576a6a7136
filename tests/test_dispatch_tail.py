"""The serving tail's oracle: ``dispatch._serve`` is one function on one
path, so every way of calling ``matmul`` must resolve, take its arena,
execute and report identically.

{telemetry off, on} x {guard off, on} x {a cache hit under
``tune="never"``, a ``tune="auto"`` sweep on an empty cache} x four plans
spanning the executors: same ``(plan, source)``, a product bit-equal to
the plan's own, every serving call in the thread's own arena and no
measurement sweep ever in it -- and, under guard, an injected failure
still lands on the classical product and costs the thread the arena the
failed plan ran in.

And what a sequential fast plan executes is stated once too
(:class:`TestSequentialPlansFollowTheRule`): the compiled driver in its
slab arena wherever the kernel rule holds, else the interpreter in the
Section 4.1 arena -- never a generated module.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import multiply_reference, obs
from repro.algorithms import get_algorithm
from repro.codegen import cbackend, generator
from repro.core.stability import error_bound
from repro.core.workspace import cbackend_footprint, dfs_footprint
from repro.guard import faults
from repro.tuner import PlanCache, dispatch, matmul, measure
from repro.tuner.policy import AutoTunePolicy, TuningPolicy
from repro.tuner.space import Plan
from repro.util.matrices import random_matrix

N = 192

PLANS = [
    Plan(threads=1),
    Plan(algorithm="strassen", steps=1, threads=1),
    Plan(algorithm="strassen", steps=1, scheme="dfs", threads=2),
]


@pytest.fixture(autouse=True)
def clean_state():
    def reset():
        faults.clear()
        faults.reset_fired()
        obs.disable()
        obs.reset()
        dispatch.reset_workspaces()

    reset()
    yield
    reset()


def _recorded(policy: TuningPolicy, arm: str | None = None) -> list:
    """Spy on ``select``, the one policy call the tail makes; ``arm`` a
    fault point once it has resolved, so only the serving call fails."""
    seen = []
    select = policy.select

    def spy_select(*args):
        seen.append(select(*args))
        if arm is not None:
            faults.arm(arm)
        return seen[-1]

    policy.select = spy_select
    return seen


def _own_arena(plan: Plan, A, B):
    """The calling thread's arena, sized so ``plan`` will not regrow it."""
    return dispatch.workspace_for(PLANS[1] if plan.is_dgemm else plan,
                                  N, N, N, A.dtype, B.dtype)


def _request(plan: Plan, tuned: bool, tmp_path, monkeypatch):
    """``(policy, cache, source)`` making ``plan`` the resolved plan: a
    cache hit, or the only candidate of an ``auto`` sweep."""
    cache = PlanCache(tmp_path / "plans.json")
    if tuned:
        monkeypatch.setattr(measure, "enumerate_plans",
                            lambda *a, **k: [plan])
        return AutoTunePolicy(trials=1, persist=False), cache, "tuned"
    cache.put(N, N, N, "float64", plan.threads, plan, seconds=0.01,
              gflops=1.0)
    return TuningPolicy(), cache, "cache"


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.describe())
@pytest.mark.parametrize("tuned", [False, True], ids=["cached", "tuned"])
@pytest.mark.parametrize("guard", [False, True], ids=["plain", "guarded"])
@pytest.mark.parametrize("observed", [False, True], ids=["quiet", "traced"])
def test_every_call_crosses_the_same_tail(observed, guard, tuned, plan,
                                          tmp_path, monkeypatch):
    policy, cache, source = _request(plan, tuned, tmp_path, monkeypatch)
    seen = _recorded(policy)
    A, B = random_matrix(N, N, 0), random_matrix(N, N, 1)
    want = dispatch.execute_plan(plan, A, B)
    arena = _own_arena(plan, A, B)
    uses = arena.uses
    if observed:
        obs.enable()
    C = matmul(A, B, threads=plan.threads, cache=cache, tune=policy,
               guard=guard)

    assert seen == [(plan, source)]
    assert np.array_equal(C, want)
    assert cache.get(N, N, N, "float64", plan.threads) == plan
    # arenas: the serving call runs in the thread's own (plain BLAS in
    # none), a measurement sweep never does
    assert arena.uses - uses == (not plan.is_dgemm)
    assert _own_arena(plan, A, B) is arena
    if observed:
        (rec,) = obs.dispatch_records()
        assert (rec["plan"], rec["source"]) == (plan.describe(), source)
        assert obs.span_stats("dispatch.lookup")["count"] == 1
        assert obs.span_stats("dispatch.execute",
                              scheme=plan.scheme)["count"] == 1
    else:
        assert obs.is_empty()


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.describe())
@pytest.mark.parametrize("tuned", [False, True], ids=["cached", "tuned"])
@pytest.mark.parametrize("observed", [False, True], ids=["quiet", "traced"])
def test_guarded_failure_lands_on_classical(observed, tuned, plan, tmp_path,
                                            monkeypatch):
    policy, cache, source = _request(plan, tuned, tmp_path, monkeypatch)
    seen = _recorded(policy, arm="plan.raise")
    A, B = random_matrix(N, N, 2), random_matrix(N, N, 3)
    arena = _own_arena(plan, A, B)
    if observed:
        obs.enable()
    C = matmul(A, B, threads=plan.threads, cache=cache, tune=policy,
               guard=True)

    assert seen == [(plan, source)]
    assert np.array_equal(C, np.matmul(A, B))
    # the arena the failed plan ran in (a zombie may still write to it) is
    # dropped for a new one; plain BLAS drew from none
    after = _own_arena(plan, A, B)
    assert (after is arena) == plan.is_dgemm == (after.uses > 1)
    if observed:
        assert obs.counter_value("guard.fallbacks", stage="classical") == 1
        (rec,) = obs.dispatch_records()
        assert (rec["plan"], rec["source"]) == (
            Plan(threads=plan.threads).describe(), "guard")


class TestPlainBlasShortPath:
    """A plain-BLAS plan on an unguarded, untraced request is one
    ``execute_plan`` call: no arena, no span, no record.  Traced or
    guarded, the same request takes the whole tail."""

    @pytest.fixture()
    def tail(self, monkeypatch):
        """What of the tail past execution a request touched."""
        seen = []
        for name in ("workspace_for", "_report"):
            real = getattr(dispatch, name)

            def spy(*args, _name=name, _real=real):
                seen.append(_name)
                return _real(*args)

            monkeypatch.setattr(dispatch, name, spy)
        return seen

    @pytest.mark.parametrize("n", [64, N], ids=["trivial", "cache"])
    def test_quiet_unguarded_dgemm_skips_the_tail(self, tail, tmp_path, n):
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(N, N, N, "float64", 1, Plan(threads=1))
        A, B = random_matrix(n, n, 4), random_matrix(n, n, 5)
        out = np.empty((n, n))
        assert matmul(A, B, threads=1, cache=cache, out=out,
                      guard=False) is out
        assert np.array_equal(out, np.matmul(A, B))
        assert tail == [] and obs.is_empty()

    def test_the_fault_hook_still_fires(self, tail):
        A = random_matrix(64, 64, 6)
        with faults.inject("plan.raise"):
            with pytest.raises(faults.InjectedFault):
                matmul(A, A, threads=1, guard=False)
        assert tail == []

    @pytest.mark.parametrize("observed,guard", [(True, False), (False, True),
                                                (True, True)])
    def test_traced_or_guarded_dgemm_takes_the_tail(self, tail, tmp_path,
                                                    observed, guard):
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(N, N, N, "float64", 1, Plan(threads=1))
        A, B = random_matrix(N, N, 7), random_matrix(N, N, 8)
        if observed:
            obs.enable()
        C = matmul(A, B, threads=1, cache=cache, guard=guard)
        assert np.array_equal(C, np.matmul(A, B))
        assert tail == ["workspace_for", "_report"]
        if observed:
            (rec,) = obs.dispatch_records()
            assert (rec["plan"], rec["source"]) == ("dgemm(1t)", "cache")
            assert obs.span_stats("dispatch.lookup")["count"] == 1
            assert obs.span_stats("dispatch.execute",
                                  scheme="sequential")["count"] == 1


class TestSequentialPlansFollowTheRule:
    """``execute_plan`` of a sequential fast plan runs the compiled driver
    at the product's precision where :func:`cbackend.chains_fused` holds
    -- in an arena of exactly ``cbackend_footprint`` bytes -- and
    ``core.recursion`` where it does not: the interpreter's bits, in an
    arena of exactly ``dfs_footprint`` bytes.  Neither spills, stays off
    the a-priori bound or compiles a generated module."""

    #: +-1 square, <3,3,3>, a rotated rectangular entry, coefficients
    #: outside +-1 (the scaling scratch), an APA entry
    ALGORITHMS = ["strassen", "s333", "s424", "s234", "bini322"]
    SHAPES = {"divisible": (144, 144, 144),   # by every base case, twice
              "odd": (97, 65, 83),            # peels at every level
              "cutoff": (7, 7, 7)}            # stops early, or never splits
    DTYPES = {"f64": ("float64", "float64"), "f32": ("float32", "float32"),
              "mixed": ("float32", "float64")}

    @pytest.mark.parametrize("compiler", [
        pytest.param(True, marks=pytest.mark.skipif(
            not cbackend.available(), reason="no C compiler")),
        False], ids=["kernels", "interpreter"])
    @pytest.mark.parametrize("dtypes", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_bits_arena_and_no_codegen(self, name, steps, shape, dtypes,
                                       compiler, monkeypatch):
        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("a sequential plan compiled a generated "
                                 "module")

        for module in (generator, repro.codegen, repro):
            monkeypatch.setattr(module, "compile_algorithm", boom)
        monkeypatch.setattr(dispatch, "compile_algorithm", boom,
                            raising=False)
        monkeypatch.setattr(cbackend, "available", lambda: compiler)
        alg = get_algorithm(name)
        p, q, r = self.SHAPES[shape]
        dt_a, dt_b = self.DTYPES[dtypes]
        A = random_matrix(p, q, 0, dtype=dt_a)
        B = random_matrix(q, r, 1, dtype=dt_b)
        plan = Plan(algorithm=name, steps=steps, threads=1)
        ws = dispatch.build_workspace(plan, p, q, r, A.dtype, B.dtype)
        out = np.empty((p, r), dtype=np.result_type(A, B))

        C = dispatch.execute_plan(plan, A, B, out=out, workspace=ws)

        assert C is out
        assert ws.overflow_allocations == 0
        if compiler:
            assert ws.high_water <= ws.nbytes == cbackend_footprint(
                alg, False, (p, q, r), dt_a, steps, dt_b)
        else:
            assert np.array_equal(C, multiply_reference(A, B, alg,
                                                        steps=steps))
            assert ws.high_water <= ws.nbytes == dfs_footprint(
                [alg.base_case] * steps, p, q, r, dt_a, dt_b,
                algorithms=[alg] * steps)
        exact = A.astype("float64") @ B.astype("float64")
        rel = np.linalg.norm(C - exact) / np.linalg.norm(exact)
        # the lower precision the chains are formed in sets the floor (the
        # kernels form a mixed product's in double); an APA entry is off
        # by its own residual at every level
        floor = ("float64" if compiler or dtypes == "f64" else "float32")
        floor = "float32" if dtypes == "f32" else floor
        assert rel <= (error_bound(alg, steps, q, floor)
                       + steps * alg.residual())
