"""Arena-aware code generation: generated modules with ``out=``/``workspace=``.

Pins down the ISSUE 4 contract:

1. a generated module with ``workspace=`` draws every S/T/M/CSE/streaming
   temporary from the arena (zero overflow allocations) and its result is
   *bit-for-bit* equal to the allocating generated path -- same ufunc/gemm
   sequence on the same values -- across all three addition strategies,
   CSE on/off, both float dtypes and non-divisible shapes;
2. ``workspace.codegen_footprint`` covers the generated recursion exactly
   (it mirrors the module's own peel loop and per-strategy slot counts);
3. warm generated calls with ``out=`` + ``workspace=`` perform no large
   allocations (<1 MiB tracking-allocator budget);
4. ``tuner.dispatch.execute_plan`` serves sequential plans from the
   *generated* module -- no interpreter fallback when a workspace is
   provided, no ``np.copyto(out, C)`` double-copy, ``out`` written
   directly;
5. float32 inputs through any codegen path come back float32.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.codegen import STRATEGIES, compile_algorithm
from repro.core.recursion import multiply as interpreter_multiply
from repro.core.workspace import (
    Workspace,
    codegen_footprint,
    track_allocations,
)
from repro.tuner import Plan, PlanCache
from repro.tuner import matmul as tuner_matmul
from repro.tuner import reset_workspaces
from repro.tuner.dispatch import build_workspace, execute_plan
from repro.util.matrices import random_matrix

LARGE = 1 << 20

ALGS = ("strassen", "winograd", "s234", "s333")


def _codegen_workspace(alg, strategy, cse, p, q, r, dtype, steps):
    return Workspace(codegen_footprint(alg, strategy, cse, (p, q, r), dtype,
                                       steps))


# =========================================================================
# bit-for-bit equivalence: arena-backed generated == allocating generated
# =========================================================================
@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ALGS),
    strategy=st.sampled_from(STRATEGIES),
    cse=st.booleans(),
    dtype_a=st.sampled_from((np.float64, np.float32)),
    dtype_b=st.sampled_from((np.float64, np.float32)),
    steps=st.integers(1, 2),
    dims=st.tuples(st.integers(21, 64), st.integers(21, 64),
                   st.integers(21, 64)),
    seed=st.integers(0, 2**16),
)
def test_generated_arena_bit_for_bit(name, strategy, cse, dtype_a, dtype_b,
                                     steps, dims, seed):
    # dtypes drawn independently: mixed float32 x float64 inputs pin the
    # operand-dtype chain lowering of arena pairwise (a cold and a warm
    # dispatch call must return identical bits for identical inputs)
    alg = get_algorithm(name)
    p, q, r = dims
    rng = np.random.default_rng(seed)
    A = rng.random((p, q)).astype(dtype_a)
    B = rng.random((q, r)).astype(dtype_b)
    result_dtype = np.result_type(A, B)
    fn = compile_algorithm(alg, strategy, cse)
    ref = fn(A, B, steps=steps)

    ws = Workspace(codegen_footprint(alg, strategy, cse, (p, q, r), A.dtype,
                                     steps, dtype_b=B.dtype))
    out = np.empty((p, r), dtype=result_dtype)
    got = fn(A, B, steps=steps, out=out, workspace=ws)

    assert got is out
    assert got.dtype == result_dtype
    assert ws.overflow_allocations == 0
    assert np.array_equal(ref, got)
    # and both agree with the semantic ground truth (the interpreter runs
    # a different ufunc order -- scalar piping, streaming gemms -- so this
    # comparison is tolerance-based, not bitwise; any float32 operand sets
    # the error floor even when the result dtype is float64)
    tol = 1e-3 if np.float32 in (dtype_a, dtype_b) else 1e-9
    np.testing.assert_allclose(
        got, interpreter_multiply(A, B, alg, steps=steps),
        rtol=tol, atol=tol)


@settings(max_examples=20, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    cse=st.booleans(),
    dims=st.tuples(st.integers(24, 60), st.integers(24, 60),
                   st.integers(24, 60)),
    seed=st.integers(0, 2**16),
)
def test_workspace_without_out_is_fresh(strategy, cse, dims, seed):
    """Without ``out=`` the result must be freshly owned, never a view of
    the arena a later call would clobber."""
    alg = get_algorithm("strassen")
    p, q, r = dims
    rng = np.random.default_rng(seed)
    A = rng.random((p, q))
    B = rng.random((q, r))
    fn = compile_algorithm(alg, strategy, cse)
    ws = _codegen_workspace(alg, strategy, cse, p, q, r, A.dtype, 1)
    r1 = fn(A, B, steps=1, workspace=ws)
    snapshot = r1.copy()
    fn(B.T.copy(), A.T.copy(), steps=1, workspace=ws)
    np.testing.assert_array_equal(r1, snapshot)


# =========================================================================
# footprint coverage
# =========================================================================
class TestCodegenFootprint:
    @pytest.mark.parametrize("name", ALGS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("cse", [False, True])
    def test_covers_generated_recursion(self, name, strategy, cse):
        alg = get_algorithm(name)
        p, q, r = 97, 65, 83  # peels at every level for every base case
        steps = 2
        A = random_matrix(p, q, 0)
        B = random_matrix(q, r, 1)
        fn = compile_algorithm(alg, strategy, cse)
        ws = _codegen_workspace(alg, strategy, cse, p, q, r, A.dtype, steps)
        out = np.empty((p, r))
        fn(A, B, steps=steps, out=out, workspace=ws)
        assert ws.overflow_allocations == 0
        assert ws.high_water <= ws.nbytes
        np.testing.assert_allclose(out, A @ B, atol=1e-8)

    def test_footprint_grows_with_steps_and_rank(self):
        alg = get_algorithm("strassen")
        one = codegen_footprint(alg, "write_once", False, (256, 256, 256),
                                "float64", 1)
        two = codegen_footprint(alg, "write_once", False, (256, 256, 256),
                                "float64", 2)
        assert two > one
        # streaming holds the R-row combine slabs on top of the M slab
        stream = codegen_footprint(alg, "streaming", False, (256, 256, 256),
                                   "float64", 1)
        assert stream > one

    def test_float32_footprint_is_smaller(self):
        alg = get_algorithm("strassen")
        f64 = codegen_footprint(alg, "write_once", False, (128, 128, 128),
                                "float64", 1)
        f32 = codegen_footprint(alg, "write_once", False, (128, 128, 128),
                                "float32", 1)
        assert f32 < f64

    def test_tiny_arena_degrades_to_heap_not_wrong_answers(self):
        alg = get_algorithm("strassen")
        A = random_matrix(64, 64, 2)
        B = random_matrix(64, 64, 3)
        fn = compile_algorithm(alg, "write_once")
        ws = Workspace(64)
        out = np.empty((64, 64))
        fn(A, B, steps=2, out=out, workspace=ws)
        assert ws.overflow_allocations > 0
        np.testing.assert_allclose(out, A @ B, atol=1e-9)

    def test_out_without_workspace_still_correct(self):
        alg = get_algorithm("s234")
        A = random_matrix(50, 66, 4)
        B = random_matrix(66, 42, 5)
        fn = compile_algorithm(alg, "write_once")
        out = np.empty((50, 42))
        got = fn(A, B, steps=1, out=out)
        assert got is out
        np.testing.assert_allclose(out, A @ B, atol=1e-9)

    def test_out_aliasing_rejected(self):
        alg = get_algorithm("strassen")
        A = random_matrix(32, 32, 6)
        B = random_matrix(32, 32, 7)
        fn = compile_algorithm(alg, "write_once")
        with pytest.raises(ValueError, match="overlap"):
            fn(A, B, steps=1, out=A)


# =========================================================================
# warm generated calls allocate nothing large
# =========================================================================
class TestGeneratedSteadyState:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [512, 515])
    def test_warm_generated_call_is_allocation_free(self, strategy, n):
        alg = get_algorithm("strassen")
        A = random_matrix(n, n, 0)
        B = random_matrix(n, n, 1)
        fn = compile_algorithm(alg, strategy)
        ws = _codegen_workspace(alg, strategy, False, n, n, n, A.dtype, 2)
        out = np.empty((n, n))
        fn(A, B, steps=2, out=out, workspace=ws)  # warm numpy + arena
        with track_allocations() as rep:
            fn(A, B, steps=2, out=out, workspace=ws)
        assert rep.peak_bytes is not None and rep.peak_bytes < LARGE, strategy
        assert ws.overflow_allocations == 0
        np.testing.assert_allclose(out, A @ B, atol=1e-8)


# =========================================================================
# dispatch: sequential plans are served by the generated module
# =========================================================================
class TestDispatchServesCodegen:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_interpreter_fallback(self, strategy, monkeypatch):
        """With a workspace, execute_plan must run the generated module --
        never the reference interpreter (the pre-ISSUE-4 fallback)."""
        import repro.core.recursion as recursion

        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("sequential dispatch fell back to the "
                                 "interpreter")

        monkeypatch.setattr(recursion, "multiply", boom)
        n = 128
        plan = Plan(algorithm="strassen", steps=2, scheme="sequential",
                    strategy=strategy, threads=1)
        A = random_matrix(n, n, 8)
        B = random_matrix(n, n, 9)
        ws = build_workspace(plan, n, n, n, A.dtype, B.dtype)
        out = np.empty((n, n))
        got = execute_plan(plan, A, B, out=out, workspace=ws)
        assert got is out
        assert ws.overflow_allocations == 0
        np.testing.assert_allclose(out, A @ B, atol=1e-9)

    def test_no_double_copy_on_warm_dispatch(self, tmp_path):
        """The old path materialized C then np.copyto(out, C) -- a full
        matrix-sized allocation the tracking allocator must no longer see
        on a warm sequential codegen-served dispatch."""
        n = 512
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(n, n, n, "float64", 1,
                  Plan(algorithm="strassen", steps=2, scheme="sequential",
                       strategy="write_once", threads=1))
        A = random_matrix(n, n, 10)
        B = random_matrix(n, n, 11)
        out = np.empty((n, n))
        reset_workspaces()
        got = tuner_matmul(A, B, threads=1, cache=cache, out=out)
        assert got is out
        with track_allocations() as rep:
            got = tuner_matmul(A, B, threads=1, cache=cache, out=out)
        assert got is out
        assert rep.peak_bytes is not None and rep.peak_bytes < LARGE
        np.testing.assert_allclose(out, A @ B, atol=1e-8)
        reset_workspaces()

    def test_float32_dispatch_returns_float32(self, tmp_path):
        n = 160
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(n, n, n, "float32", 1,
                  Plan(algorithm="strassen", steps=1, scheme="sequential",
                       threads=1))
        A = random_matrix(n, n, 12, dtype=np.float32)
        B = random_matrix(n, n, 13, dtype=np.float32)
        reset_workspaces()
        C = tuner_matmul(A, B, threads=1, cache=cache)
        assert C.dtype == np.float32
        np.testing.assert_allclose(C, A @ B, rtol=2e-3, atol=2e-3)
        reset_workspaces()

    def test_build_workspace_sizes_for_codegen(self):
        """The sequential arena must use the codegen footprint (R live
        products per level), not the interpreter's single-M_r formula --
        undersizing would show up as overflow allocations in live serving."""
        plan = Plan(algorithm="strassen", steps=2, scheme="sequential",
                    threads=1)
        n = 256
        ws = build_workspace(plan, n, n, n, np.dtype("float64"),
                             np.dtype("float64"))
        alg = get_algorithm("strassen")
        expected = codegen_footprint(alg, plan.strategy, False, (n, n, n),
                                     "float64", plan.steps)
        assert ws.nbytes == expected
