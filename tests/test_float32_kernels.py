"""The float32 kernels serve float32 products.

A float32 product is formed at its own precision: every sequential fast
plan runs the ``float`` instantiation of the library through the C
driver, and dfs, bfs and hybrid form their chains with the same kernels
over row ranges.  That the product is right, whatever the layout, is
``test_oracle.py``'s; pinned here: the ``float`` kernels are the ones
that serve, a warm call allocates nothing beyond its arena, and a mixed
float32 x float64 call is computed in double.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.algorithms import get_algorithm
from repro.codegen import cbackend
from repro.core.stability import error_bound
from repro.core.workspace import cbackend_footprint, track_allocations
from repro.parallel.pool import WorkerPool
from repro.tuner import dispatch
from repro.tuner.space import Plan
from repro.util.matrices import random_matrix

pytestmark = pytest.mark.skipif(not cbackend.available(),
                                reason="no working C compiler")

F32 = np.dtype(np.float32)


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
