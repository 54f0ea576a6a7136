"""Unit tests for repro.core.tensor: the matmul tensor and tensor algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tensor as tz

dims = st.integers(min_value=1, max_value=4)


class TestMatmulTensor:
    def test_shape(self):
        T = tz.matmul_tensor(2, 3, 4)
        assert T.shape == (6, 12, 8)

    def test_nnz_is_mkn(self):
        for m, k, n in [(1, 1, 1), (2, 2, 2), (2, 3, 4), (3, 3, 6)]:
            T = tz.matmul_tensor(m, k, n)
            assert np.count_nonzero(T) == m * k * n

    def test_entries_are_unit(self):
        T = tz.matmul_tensor(3, 2, 3)
        vals = np.unique(T)
        assert set(vals.tolist()) <= {0.0, 1.0}

    def test_paper_222_frontal_slices(self):
        """The four frontal slices printed in Section 2.2.2."""
        T = tz.matmul_tensor(2, 2, 2)
        T1 = np.zeros((4, 4)); T1[0, 0] = T1[1, 2] = 1
        T2 = np.zeros((4, 4)); T2[0, 1] = T2[1, 3] = 1
        T3 = np.zeros((4, 4)); T3[2, 0] = T3[3, 2] = 1
        T4 = np.zeros((4, 4)); T4[2, 1] = T4[3, 3] = 1
        for k, expected in enumerate([T1, T2, T3, T4]):
            np.testing.assert_array_equal(tz.frontal_slice(T, k), expected)

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            tz.matmul_tensor(0, 2, 2)
        with pytest.raises(ValueError):
            tz.matmul_tensor(2, -1, 2)

    @given(dims, dims, dims)
    @settings(max_examples=20)
    def test_tensor_computes_matmul(self, m, k, n):
        """T x1 vec(A) x2 vec(B) == vec(A @ B) for random matrices."""
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        T = tz.matmul_tensor(m, k, n)
        z = tz.mode_product(T, tz.vec(A), tz.vec(B))
        np.testing.assert_allclose(tz.unvec(z, m, n), A @ B, atol=1e-12)

    def test_paper_example_c21(self):
        """T3 x1 vec(A) x2 vec(B) = a21 b11 + a22 b21 = c21 (Section 2.2.2)."""
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        T = tz.matmul_tensor(2, 2, 2)
        val = tz.vec(A) @ tz.frontal_slice(T, 2) @ tz.vec(B)
        assert val == pytest.approx(A[1, 0] * B[0, 0] + A[1, 1] * B[1, 0])


class TestFactorAlgebra:
    def test_tensor_from_factors_rank_one(self):
        u = np.array([[1.0], [2.0]])
        v = np.array([[3.0], [0.0], [1.0]])
        w = np.array([[1.0], [-1.0]])
        T = tz.tensor_from_factors(u, v, w)
        assert T.shape == (2, 3, 2)
        assert T[1, 0, 1] == pytest.approx(2 * 3 * -1)

    def test_residual_zero_for_self(self):
        rng = np.random.default_rng(1)
        U, V, W = (rng.standard_normal((4, 5)) for _ in range(3))
        T = tz.tensor_from_factors(U, V, W)
        assert tz.residual(T, U, V, W) == pytest.approx(0.0, abs=1e-12)

    def test_relative_residual_normalization(self):
        T = tz.matmul_tensor(2, 2, 2)
        Z = np.zeros((4, 1))
        rel = tz.relative_residual(T, Z, Z, Z)
        assert rel == pytest.approx(1.0)

    @given(st.integers(0, 2))
    @settings(max_examples=6)
    def test_unfold_khatri_rao_identity(self, mode):
        """unfold(T, mode) == F @ khatri_rao(other two factors).T"""
        rng = np.random.default_rng(mode)
        U = rng.standard_normal((3, 4))
        V = rng.standard_normal((5, 4))
        W = rng.standard_normal((2, 4))
        T = tz.tensor_from_factors(U, V, W)
        pairs = {0: (U, (V, W)), 1: (V, (U, W)), 2: (W, (U, V))}
        F, (A, B) = pairs[mode]
        np.testing.assert_allclose(
            tz.unfold(T, mode), F @ tz.khatri_rao(A, B).T, atol=1e-12
        )

    def test_unfold_bad_mode(self):
        with pytest.raises(ValueError):
            tz.unfold(tz.matmul_tensor(2, 2, 2), 3)

    def test_khatri_rao_mismatched_columns(self):
        with pytest.raises(ValueError):
            tz.khatri_rao(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_vec_unvec_roundtrip(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(tz.unvec(tz.vec(A), 3, 5), A)

    def test_vec_is_row_major(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(tz.vec(A), [1.0, 2.0, 3.0, 4.0])
