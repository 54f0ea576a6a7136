"""One float32 oracle for the compiled chain kernels.

A float32 product is formed at its own precision: every sequential fast
plan runs the ``float`` instantiation of the emitted kernels through the
C driver, and dfs, bfs and hybrid form their chains with the same kernels
over row ranges.  Whatever path a call takes -- any catalog algorithm up
to its float32 stability budget, non-divisible shapes around the float32
leaf cutoff, packed Fortran and strided operands, a float32 ``out`` --
the product stays within ``error_bound(alg, steps, q, "float32")``; a
warm call allocates nothing beyond its arena; and a mixed float32 x
float64 call is computed in double.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.algorithms import get_algorithm, list_algorithms
from repro.codegen import cbackend
from repro.core.stability import error_bound, max_stable_steps
from repro.core.workspace import Workspace, cbackend_footprint, track_allocations
from repro.parallel.pool import WorkerPool
from repro.tuner import dispatch
from repro.tuner.space import FLOAT32_MIN_LEAF, Plan
from repro.util.matrices import random_matrix

pytestmark = pytest.mark.skipif(not cbackend.available(),
                                reason="no working C compiler")

F32 = np.dtype(np.float32)


def _cases():
    """(algorithm, steps) for every catalog entry up to its float32
    stability budget."""
    for name in list_algorithms(include_apa=True):
        alg = get_algorithm(name)
        for steps in range(1, max_stable_steps(alg, "float32") + 1):
            yield pytest.param(name, steps, id=f"{name}x{steps}")


def _shape(alg, steps: int, off: tuple[int, int, int]) -> tuple[int, ...]:
    """Leaves one off the float32 cutoff in every dimension: a peel at
    every level that has something to peel."""
    return tuple(b ** steps * FLOAT32_MIN_LEAF + o
                 for b, o in zip(alg.base_case, off))


def _rel(C, A, B) -> float:
    exact = A.astype(np.float64) @ B.astype(np.float64)
    return float(np.linalg.norm(C.astype(np.float64) - exact)
                 / (np.linalg.norm(exact) or 1.0))


def _operands(p, q, r, seed=0, dtype=F32):
    return (random_matrix(p, q, seed, dtype=dtype),
            random_matrix(q, r, seed + 1, dtype=dtype))


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as p:
        yield p


@pytest.mark.parametrize("off", [(1, -1, 1), (-1, 1, 0)],
                         ids=["odd", "even-r"])
@pytest.mark.parametrize("name,steps", list(_cases()))
def test_every_catalog_algorithm_within_its_float32_bound(name, steps, off):
    alg = get_algorithm(name)
    p, q, r = _shape(alg, steps, off)
    A, B = _operands(p, q, r, seed=steps)
    plan = Plan(algorithm=name, steps=steps)
    ws = dispatch.build_workspace(plan, p, q, r, F32, F32)
    assert ws.nbytes == cbackend_footprint(alg, False, (p, q, r), F32, steps)
    C = dispatch.execute_plan(plan, A, B, workspace=ws)
    assert C.dtype == F32
    assert _rel(C, A, B) <= error_bound(alg, steps, q, "float32")
    assert ws.overflow_allocations == 0


def test_the_float_kernels_serve_and_keep_float32(monkeypatch):
    """The driver that served is the ``float`` one: nothing is widened to
    double on the way, so the arena holds float32 slabs."""
    served = []
    real = cbackend.CompiledChains.multiply

    def spy(self, *args, **kw):
        served.append(self.real)
        return real(self, *args, **kw)
    monkeypatch.setattr(cbackend.CompiledChains, "multiply", spy)
    A, B = _operands(257, 129, 255)
    dispatch.execute_plan(Plan(algorithm="strassen", steps=2), A, B)
    assert served == ["float"]
    alg = get_algorithm("strassen")
    f32 = cbackend_footprint(alg, False, (2048, 2048, 2048), F32, 1)
    f64 = cbackend_footprint(alg, False, (2048, 2048, 2048), "float64", 1)
    assert f32 < 0.51 * f64


def test_fortran_strided_operands_and_float32_out():
    """What the kernels cannot walk in place is packed once, in the arena
    the call reserves for it; ``out`` of any layout receives the
    product."""
    alg = get_algorithm("s333")
    p, q, r = 97, 95, 99
    A, B = _operands(p, q, 2 * r)
    ws = Workspace(0)
    for Av, Bv, out in (
            (np.asfortranarray(A), B[:, ::2], None),
            (A, B[:, :r], np.empty((p, r), F32)),
            (A[::-1], np.asfortranarray(B[:, :r]),
             np.empty((r, p), F32).T),
            (A, B[:, 1:r + 1], np.empty((p, r + 3), F32)[:, 2:r + 2])):
        plan = Plan(algorithm="s333", steps=1)
        ws.reserve(dispatch.plan_footprint(plan, p, q, r, F32, F32))
        C = dispatch.execute_plan(plan, Av, Bv, out=out, workspace=ws)
        if out is not None:
            assert C is out
        assert C.dtype == F32
        assert _rel(C, Av, Bv) <= error_bound(alg, 1, q, "float32")
        assert ws.overflow_allocations == 0


@pytest.mark.parametrize("scheme", ["dfs", "bfs", "hybrid"])
def test_float32_schedules_are_fused(scheme, pool):
    alg = get_algorithm("strassen")
    p, q, r = 257, 255, 259
    A, B = _operands(p, q, r, seed=5)
    plan = Plan(algorithm="strassen", steps=2, scheme=scheme, threads=2)
    ws = dispatch.build_workspace(plan, p, q, r, F32, F32)
    out = np.empty((p, r), F32)
    obs.enable()
    obs.reset()
    try:
        C = dispatch.execute_plan(plan, A, B, pool=pool, out=out, workspace=ws)
        chains = [row["labels"]["chains"] for row in obs.snapshot()["spans"]
                  if row["name"] == f"parallel.{scheme}"]
    finally:
        obs.disable()
        obs.reset()
    assert chains == ["fused"]
    assert C is out and _rel(C, A, B) <= error_bound(alg, 2, q, "float32")
    assert ws.overflow_allocations == 0


@pytest.mark.parametrize("scheme", ["sequential", "dfs", "bfs", "hybrid"])
def test_warm_float32_call_allocates_nothing(scheme, pool):
    p, q, r = 515, 257, 513
    plan = Plan(algorithm="strassen", steps=2, scheme=scheme,
                threads=1 if scheme == "sequential" else 2)
    A, B = _operands(p, q, r, seed=7)
    out = np.empty((p, r), F32)
    ws = dispatch.build_workspace(plan, p, q, r, F32, F32)
    nbytes = ws.nbytes
    dispatch.execute_plan(plan, A, B, pool=pool, out=out, workspace=ws)
    with track_allocations() as rep:
        dispatch.execute_plan(plan, A, B, pool=pool, out=out, workspace=ws)
    assert rep.peak_bytes < 1 << 20
    assert ws.overflow_allocations == 0 and ws.nbytes == nbytes


def test_mixed_precision_is_computed_in_double(monkeypatch):
    """A float32 x float64 product is double: the ``double`` kernels serve
    it, with the float32 operand packed once into the arena."""
    served = []
    real = cbackend.CompiledChains.multiply

    def spy(self, *args, **kw):
        served.append(self.real)
        return real(self, *args, **kw)
    monkeypatch.setattr(cbackend.CompiledChains, "multiply", spy)
    alg = get_algorithm("strassen")
    A = random_matrix(130, 126, 1, dtype=F32)
    B = random_matrix(126, 134, 2)
    plan = Plan(algorithm="strassen", steps=2)
    ws = dispatch.build_workspace(plan, 130, 126, 134, A.dtype, B.dtype)
    C = dispatch.execute_plan(plan, A, B, workspace=ws)
    assert served == ["double"] and C.dtype == np.float64
    assert _rel(C, A, B) <= error_bound(alg, 2, 126, "float64")
    assert ws.overflow_allocations == 0


def test_float_kernels_refuse_a_double_product():
    cc = cbackend.compile_chains("strassen", dtype="float32")
    A, B = _operands(64, 64, 64, dtype=np.float64)
    with pytest.raises(ValueError, match="double kernels"):
        cc.multiply(A, B)
    with pytest.raises(ValueError, match="no chain kernels"):
        cbackend.compile_chains("strassen", dtype="float16")
