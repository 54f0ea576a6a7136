"""float32 support across the whole stack (paper Section 5.1 note: single
precision is the honest alternative to APA algorithms)."""

import numpy as np
import pytest

import repro
from repro.parallel import SCHEMES, WorkerPool, multiply_parallel
from repro.util.matrices import random_matrix


@pytest.fixture(scope="module")
def f32_problem():
    A = random_matrix(67, 53, 0).astype(np.float32)
    B = random_matrix(53, 71, 1).astype(np.float32)
    return A, B, A.astype(np.float64) @ B.astype(np.float64)


class TestFloat32Codegen:
    def test_dtype_preserved(self, f32_problem):
        A, B, ref = f32_problem
        C = repro.multiply(A, B, algorithm="s234", steps=2)
        assert C.dtype == np.float32
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert rel < 1e-5  # float32 rounding floor, not float64 junk

    def test_cse_variant(self, f32_problem):
        A, B, _ = f32_problem
        C = repro.multiply(A, B, algorithm="strassen", steps=1, cse=True)
        assert C.dtype == np.float32

    def test_interpreter_dtype(self, f32_problem):
        A, B, _ = f32_problem
        C = repro.multiply_reference(A, B, repro.get_algorithm("s333"), steps=2)
        assert C.dtype == np.float32


class TestFloat32Parallel:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_schemes_preserve_dtype(self, f32_problem, scheme):
        A, B, ref = f32_problem
        with WorkerPool(2) as pool:
            C = multiply_parallel(A, B, repro.get_algorithm("strassen"),
                                  steps=1, scheme=scheme, pool=pool)
        assert C.dtype == np.float32
        rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
        assert rel < 1e-5


class TestMixedAndOtherDtypes:
    def test_mixed_promotes_to_float64(self):
        A = random_matrix(32, 32, 2).astype(np.float32)
        B = random_matrix(32, 32, 3)
        C = repro.multiply(A, B, algorithm="strassen")
        assert C.dtype == np.float64

    def test_int_inputs_upcast(self):
        A = np.arange(64, dtype=np.int32).reshape(8, 8)
        C = repro.multiply(A, A, algorithm="strassen")
        assert C.dtype == np.float64
        np.testing.assert_allclose(C, (A @ A).astype(float))

    def test_float32_vs_apa_accuracy(self):
        """The paper's remark quantified: float32 classical-precision beats
        our APA algorithms while being equally 'reduced precision'."""
        A = random_matrix(60, 40, 4)
        B = random_matrix(40, 44, 5)
        ref = A @ B
        C32 = repro.multiply(A.astype(np.float32), B.astype(np.float32),
                             algorithm="strassen", steps=1)
        Capa = repro.multiply(A, B, algorithm="bini322", steps=1)
        e32 = np.linalg.norm(C32 - ref) / np.linalg.norm(ref)
        eapa = np.linalg.norm(Capa - ref) / np.linalg.norm(ref)
        assert e32 < eapa


#: every public entry point of a product, on ``(A, B)``
ENTRY_POINTS = {
    "matmul": lambda A, B: repro.matmul(A, B, threads=1),
    "matmul_batched-stacked": lambda A, B: repro.matmul_batched(
        A[None], B[None], threads=1),
    "matmul_batched-list": lambda A, B: repro.matmul_batched(
        [A], [B], threads=1),
    "multiply_reference": lambda A, B: repro.multiply_reference(
        A, B, repro.get_algorithm("strassen")),
    "multiply_parallel": lambda A, B: multiply_parallel(
        A, B, repro.get_algorithm("strassen"), threads=2),
    "multiply": lambda A, B: repro.multiply(A, B),
}


class TestUnrepresentableDtypes:
    """A product float64 cannot hold -- complex, extended precision --
    raises instead of coming back narrowed to float64 (a complex product
    used to lose its imaginary part with only a ``ComplexWarning``)."""

    @pytest.mark.parametrize("dtype", [
        np.complex128, np.complex64,
        pytest.param(np.longdouble, marks=pytest.mark.skipif(
            np.dtype(np.longdouble).itemsize <= 8,
            reason="longdouble is float64 here"))])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_raises(self, entry, dtype):
        A = random_matrix(40, 40, 6).astype(dtype)
        with pytest.raises(ValueError, match="cannot multiply"):
            ENTRY_POINTS[entry](A, A)
        # a float operand beside it does not make the pair computable
        with pytest.raises(ValueError, match="cannot multiply"):
            ENTRY_POINTS[entry](A.real.astype(np.float64), A)

    @pytest.mark.parametrize("dtype", [np.float16, np.int8, np.uint16,
                                       np.bool_])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_narrow_dtypes_still_upcast(self, entry, dtype):
        A = (random_matrix(40, 40, 7) * 3).astype(dtype)
        C = ENTRY_POINTS[entry](A, A)
        C = C[0] if isinstance(C, list) or C.ndim == 3 else C
        exact = A.astype(np.float64) @ A.astype(np.float64)
        assert C.dtype == np.float64
        np.testing.assert_allclose(C, exact, rtol=1e-10, atol=1e-10)
