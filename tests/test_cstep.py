"""The compiled step: one C call per sequential product.

``fmm_step`` forms S and T, issues each rank's product through the
vendor's cblas (or recurses into its home), forms C and adds the peel
strips -- every level, in one ctypes call.  What it promises:

- a product it hands the vendor is issued as ``np.matmul`` issues it, so a
  thin strip (one row, one column, inner dimension one) rounds as NumPy's
  does, down to 1x1x1;
- on a warm arena it carves every level from one region no larger than
  ``cbackend_footprint`` charges: no overflow, no allocation;
- without CSE it is the interpreter, bit for bit, on every candidate;
- where the probe finds no cblas, the interpreter serves the same bits;
- a warm call is one call into the step and nothing else in the unit;
- threads share the unit and the cblas table, never an arena.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.algorithms import get_algorithm, list_algorithms
from repro.codegen import cbackend
from repro.core import recursion
from repro.core.stability import error_bound
from repro.core.workspace import (
    ALIGNMENT,
    Workspace,
    cbackend_carve_bytes,
    cbackend_footprint,
    track_allocations,
)
from repro.parallel import blas
from repro.tuner import dispatch
from repro.tuner.space import Plan, candidate_algorithms
from repro.util.matrices import random_matrix
from repro.util.validation import relative_error

pytestmark = pytest.mark.skipif(
    not cbackend.available() or blas.matmul_kernels("double") is None,
    reason="no C compiler or no vendor cblas")

DTYPES = ("float64", "float32")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [
    (1, 1, 1), (1, 333, 333), (333, 333, 1), (333, 1, 333), (2, 2, 2),
    (1, 333, 1), (3, 5, 7), (100, 100, 100), (0, 3, 3), (3, 0, 3)])
def test_bound_products_match_numpy_bit_for_bit(shape, dtype):
    """Zero steps is the vendor product alone: ``mm`` picks dot, gemv,
    gemm or NumPy's own loop exactly where ``np.matmul`` does (a plain
    gemm of a 1x333x333 product differs from it in the last bits)."""
    p, q, r = shape
    A = random_matrix(p, q, 1, dtype=dtype)
    B = random_matrix(q, r, 2, dtype=dtype)
    C = cbackend.compile_chains("strassen", dtype=dtype).multiply(
        A, B, steps=0)
    assert C.dtype == np.dtype(dtype) and np.array_equal(C, A @ B)


def _layouts(p, q, r, dtype):
    """``(label, A, B, out)``: contiguous, row-strided, Fortran (packed
    on entry) and a row-strided ``out``, all of the same product."""
    A = random_matrix(p, q, 3, dtype=dtype)
    B = random_matrix(q, r, 4, dtype=dtype)
    wide = np.empty((p, q + 3), dtype)[:, 1:q + 1]
    wide[...] = A
    return [("contiguous", A, B, np.empty((p, r), dtype)),
            ("row-strided", wide, B, np.empty((p, r), dtype)),
            ("fortran", np.asfortranarray(A), np.asfortranarray(B),
             np.empty((p, r), dtype)),
            ("out-row-strided", A, B, np.empty((p, r + 2), dtype)[:, :r])]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("steps", (1, 2))
@pytest.mark.parametrize("name", list_algorithms(include_apa=True))
def test_warm_step_stays_in_its_arena(name, steps, dtype):
    """Every catalog entry, peeled in every dimension at both levels: the
    carve fits the footprint with no term of its own, and a warm call on
    the thread's arena neither overflows nor allocates."""
    alg = get_algorithm(name)
    m, k, n = alg.base_case
    p, q, r = 2 * m * m + m - 1, 2 * k * k + 1, 2 * n * n + 1
    plan = Plan(algorithm=name, steps=steps, threads=1)
    carve = cbackend_carve_bytes(alg, False, dtype, p, q, r, steps)
    assert 0 < carve + ALIGNMENT <= cbackend_footprint(
        alg, False, (p, q, r), dtype, steps)
    ref = None
    for label, A, B, out in _layouts(p, q, r, dtype):
        ws = dispatch.workspace_for(plan, p, q, r, A.dtype, B.dtype)
        dispatch.execute_plan(plan, A, B, out=out, workspace=ws)
        ws = dispatch.workspace_for(plan, p, q, r, A.dtype, B.dtype)
        with track_allocations() as rep:
            C = dispatch.execute_plan(plan, A, B, out=out, workspace=ws)
        assert ws.overflow_allocations == 0, label
        assert ws.high_water <= ws.nbytes, label
        assert rep.peak_bytes < 1 << 12, (label, rep.peak_bytes)
        ref = C.copy() if ref is None else ref
        assert np.array_equal(C, ref), label


def _forget_cblas(monkeypatch):
    """The probe as it runs on a BLAS without the cblas symbols."""
    monkeypatch.setattr(blas, "_KERNEL_SYMBOLS", ())
    monkeypatch.setattr(blas, "_kernels", {})
    monkeypatch.setattr(blas, "_probed", False)


@pytest.mark.parametrize("dtype", DTYPES)
def test_without_cblas_the_interpreter_serves_the_same_bits(
        monkeypatch, dtype):
    p, q, r = 95, 83, 101          # peels at both levels
    plan = Plan(algorithm="strassen", steps=2, threads=1)
    A = random_matrix(p, q, 6, dtype=dtype)
    B = random_matrix(q, r, 7, dtype=dtype)
    ws = dispatch.build_workspace(plan, p, q, r, A.dtype, B.dtype)
    compiled = dispatch.execute_plan(plan, A, B, workspace=ws)
    _forget_cblas(monkeypatch)
    assert all(blas.matmul_kernels(real) is None for real in cbackend.REALS)
    assert not cbackend.chains_fused(A.dtype, B.dtype)
    ran = []
    interpreter = recursion.multiply
    monkeypatch.setattr(recursion, "multiply",
                        lambda *a, **kw: ran.append(1) or interpreter(*a, **kw))
    served = dispatch.execute_plan(plan, A, B, workspace=ws)
    assert ran and np.array_equal(served, compiled)
    assert ws.overflow_allocations == 0


def _grid_shapes(alg):
    """Two shapes that peel every dimension at both levels."""
    m, k, n = alg.base_case
    return [(2 * m * m + m + 1, 2 * k * k + k + 1, 2 * n * n + n + 1),
            (2 * m * m + m - 1, 2 * k * k + 1, 2 * n * n + 1)]


def _variant_shapes(alg):
    """Shapes whose top level is each of the four home variants (S rows,
    T rows, both or neither fit a product; the products C holds live in
    C in all four)."""
    m, k, n = alg.base_case
    shapes = [(m * bp + 1, 4 * k + 1, n * bn + 1)
              for bp in (4, 9) for bn in (4, 9)]
    assert {(p // m <= q // k) * 2 + (r // n <= q // k)
            for p, q, r in shapes} == {0, 1, 2, 3}
    return shapes


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", [*candidate_algorithms(), "bini322",
                                  "schonhage333"])
def test_every_candidate_step_is_the_interpreter(name, dtype):
    """The one-call step and the interpreter, the two executors of a fast
    product, agree bit for bit without CSE: every candidate and the two
    APA entries, on two shapes peeled in every dimension at both levels,
    and on the four home variants, at one and two levels."""
    alg = get_algorithm(name)
    cc = cbackend.compile_chains(alg, False, dtype)
    for p, q, r in _grid_shapes(alg) + _variant_shapes(alg):
        A = random_matrix(p, q, 10, dtype=dtype)
        B = random_matrix(q, r, 11, dtype=dtype)
        for steps in (1, 2):
            assert np.array_equal(
                cc.multiply(A, B, steps=steps),
                recursion.multiply(A, B, alg, steps=steps)), (
                    p, q, r, steps)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", candidate_algorithms())
def test_every_cse_step_is_within_its_error_bound(name, dtype):
    """CSE reorders the sums, so a ``cse=True`` step differs from the
    interpreter in the last bits (``repro.analyze.cemit`` proves its
    tensor); against ``np.matmul`` in double it stays within the
    algorithm's ``error_bound``."""
    alg = get_algorithm(name)
    cc = cbackend.compile_chains(alg, True, dtype)
    for p, q, r in _grid_shapes(alg) + _variant_shapes(alg):
        A = random_matrix(p, q, 10, dtype=dtype)
        B = random_matrix(q, r, 11, dtype=dtype)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        for steps in (1, 2):
            C = cc.multiply(A, B, steps=steps)
            assert C.dtype == np.dtype(dtype)
            assert relative_error(C, ref) <= error_bound(
                alg, steps, q, dtype), (p, q, r, steps)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name,cse", [("s333", True), ("s424", True),
                                      ("strassen", False)])
def test_kernels_touch_only_their_row_range(name, cse, dtype):
    """``form_S``/``form_T``/``form_C`` over rows ``[i0, i1)`` write
    those rows of every slab row and output block and nothing else:
    every other row, and ``Y`` past its rows, keeps its sentinel; the
    rows written equal a whole sweep's (the parallel schedules cut one
    sweep into ranges that run concurrently)."""
    cc = cbackend.compile_chains(name, cse, dtype)
    m, k, n = cc.algorithm.base_case
    bp, bq, bn, dq = 7, 6, 5, 2
    A = random_matrix(m * bp, k * bq + dq, 12, dtype=dtype)
    B = random_matrix(k * bq + dq, n * bn, 13, dtype=dtype)
    A12, B21 = A[:, k * bq:], B[k * bq:]
    s_rows, t_rows, y_rows = cc.descriptor.rows
    M = random_matrix(cc.algorithm.rank, bp * bn, 14, dtype=dtype)
    Mrows = cc.product_rows([row.reshape(bp, bn) for row in M])
    i0, i1 = 2, 5

    def sweep(rows=None):
        """Rows ``rows`` of each kernel (default: all of its rows)."""
        S = np.full((s_rows, bp, bq), np.nan, dtype)
        T = np.full((t_rows, bq, bn), np.nan, dtype)
        C = np.full((m * bp, n * bn), np.nan, dtype)
        Y = np.full(y_rows * bn + 8, np.nan, dtype)
        cc.form_S(A, bp, bq, S, *(rows or (0, bp)))
        cc.form_T(B, bq, bn, T, *(rows or (0, bq)))
        cc.form_C(Mrows, bp, bn, C, Y, *(rows or (0, bp)),
                  strip=(A12, B21))
        return S, T, C.reshape(m, bp, n, bn).transpose(0, 2, 1, 3), Y

    whole = sweep()[:3]
    part = sweep((i0, i1))
    for got, want in zip(part[:3], whole):
        assert np.isnan(got[..., :i0, :]).all()
        assert np.isnan(got[..., i1:, :]).all()
        assert np.array_equal(got[..., i0:i1, :], want[..., i0:i1, :])
    assert np.isnan(part[3][y_rows * bn:]).all()


def test_product_rows_rejects_flat_rows():
    """A flat slab row has no ``(bp, bn)`` row stride: ``product_rows``
    refuses it instead of handing ``form_C`` a stride of 1."""
    cc = cbackend.compile_chains("strassen", False, np.float64)
    M = np.zeros((cc.algorithm.rank, 4 * 3))
    with pytest.raises(ValueError, match="1-D"):
        cc.product_rows(list(M))
    with pytest.raises(ValueError, match="1-D"):
        cc.product_rows([M[0].reshape(4, 3), M[1]])
    ptrs, ldm = cc.product_rows([row.reshape(4, 3) for row in M])
    assert list(ldm) == [3] * cc.algorithm.rank


class _Counted:
    """Counts the calls into one exported function of a unit."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_a_warm_call_is_one_call_into_the_step(monkeypatch):
    p = q = r = 258
    plan = Plan(algorithm="strassen", steps=2, threads=1)
    A = random_matrix(p, q, 8)
    B = random_matrix(q, r, 9)
    out = np.empty((p, r))
    ws = dispatch.workspace_for(plan, p, q, r, A.dtype, B.dtype)
    dispatch.execute_plan(plan, A, B, out=out, workspace=ws)
    lib = cbackend.compile_chains("strassen").lib
    counted = {}
    for name in ("fmm_step", "form_S", "form_T", "form_C"):
        counted[name] = _Counted(getattr(lib, name))
        monkeypatch.setattr(lib, name, counted[name])
    dispatch.execute_plan(plan, A, B, out=out, workspace=ws)
    assert {name: c.calls for name, c in counted.items()} == {
        "fmm_step": 1, "form_S": 0, "form_T": 0, "form_C": 0}


def test_threads_share_the_step_and_keep_their_arenas():
    """The unit and the cblas table are shared, the arenas are not: more
    threads than cores, each on its own operands and arena, each get the
    product a lone call gets."""
    alg = get_algorithm("strassen")
    cc = cbackend.compile_chains(alg)
    shape = (131, 67, 129)
    nbytes = cbackend_footprint(alg, False, shape, "float64", 2)
    operands = [(random_matrix(131, 67, 2 * i),
                 random_matrix(67, 129, 2 * i + 1)) for i in range(6)]
    alone = [cc.multiply(A, B, steps=2) for A, B in operands]
    got: dict[int, list] = {}

    def work(i):
        ws = Workspace(nbytes)
        got[i] = [cc.multiply(*operands[i], steps=2, workspace=ws)
                  for _ in range(20)]
        got[i].append(ws.overflow_allocations)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for i, results in got.items():
        assert results.pop() == 0
        assert all(np.array_equal(C, alone[i]) for C in results)
    assert sorted(got) == list(range(6))
