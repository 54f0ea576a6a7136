"""Property-based tests for ``repro.linalg``.

The invariants: every blocked/recursive driver must agree with the
unblocked vendor reference for *any* shape, block size and kernel
configuration, and the algebraic identities (P A = L U, L Lᵀ = A,
T·T⁻¹ = I, power laws) must hold at rounding accuracy when the kernel is
exact — regardless of whether the flops route through BLAS or a fast
algorithm.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    MatmulKernel,
    cholesky,
    count_walks,
    invert_triangular,
    lu_factor,
    lu_solve,
    matrix_power,
    solve_triangular,
)
from repro.linalg.cholesky import cholesky_error
from repro.linalg.lu import lu_error

kernels = st.sampled_from([None, "strassen", "hk223", "s233"])
blocks = st.sampled_from([8, 17, 32, 64])


def _kernel(name):
    if name is None:
        return MatmulKernel()
    return MatmulKernel(algorithm=name, steps=1, min_dim=24)


def _rand(rng, *shape):
    return rng.standard_normal(shape)


class TestLUProperties:
    @given(st.integers(2, 90), st.integers(2, 90), blocks, kernels,
           st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_palu_identity_any_shape(self, m, n, block, kname, seed):
        rng = np.random.default_rng(seed)
        A = _rand(rng, m, n)
        fac = lu_factor(A, kernel=_kernel(kname), block=block)
        assert lu_error(A, fac) < 1e-10

    @given(st.integers(4, 70), blocks, kernels, st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_solve_inverts_matvec(self, n, block, kname, seed):
        rng = np.random.default_rng(seed)
        # diagonally dominant => safely nonsingular for any draw
        A = _rand(rng, n, n) + n * np.eye(n)
        x = _rand(rng, n, 3)
        k = _kernel(kname)
        fac = lu_factor(A, kernel=k, block=block)
        got = lu_solve(fac, A @ x, kernel=k)
        np.testing.assert_allclose(got, x, atol=1e-8)

    @given(st.integers(2, 60), st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_unit_lower_and_upper_extraction(self, n, seed):
        rng = np.random.default_rng(seed)
        A = _rand(rng, n, n) + n * np.eye(n)
        LU, piv = lu_factor(A, block=16)
        L = np.tril(LU, -1) + np.eye(n)
        U = np.triu(LU)
        assert np.all(np.diag(L) == 1.0)
        # pivots are in-range and at-or-below their row index
        assert np.all(piv >= np.arange(n)) and np.all(piv < n)
        # L's entries are bounded by 1 (definition of partial pivoting)
        assert np.max(np.abs(np.tril(LU, -1))) <= 1.0 + 1e-12


class TestCholeskyProperties:
    @given(st.integers(2, 80), blocks, kernels, st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_llt_identity(self, n, block, kname, seed):
        rng = np.random.default_rng(seed)
        X = _rand(rng, n, n)
        A = X @ X.T + n * np.eye(n)
        L = cholesky(A, kernel=_kernel(kname), block=block)
        assert cholesky_error(A, L) < 1e-11
        assert np.max(np.abs(np.triu(L, 1))) == 0.0

    @given(st.integers(2, 60), st.integers(0, 10**6))
    @settings(max_examples=12)
    def test_diagonal_positive(self, n, seed):
        rng = np.random.default_rng(seed)
        X = _rand(rng, n, n)
        L = cholesky(X @ X.T + n * np.eye(n), block=16)
        assert np.all(np.diag(L) > 0)


class TestTrsmProperties:
    @given(
        st.integers(2, 80), st.integers(1, 20),
        st.booleans(), st.booleans(), st.booleans(),
        st.sampled_from(["left", "right"]),
        blocks, kernels, st.integers(0, 10**6),
    )
    @settings(max_examples=30)
    def test_residual_all_flags(self, n, m, lower, trans, unit, side,
                                base, kname, seed):
        rng = np.random.default_rng(seed)
        T = 0.1 * np.tril(_rand(rng, n, n), -1) + np.diag(rng.uniform(1, 2, n))
        if not lower:
            T = T.T
        B = _rand(rng, n, m) if side == "left" else _rand(rng, m, n)
        X = solve_triangular(T, B, side=side, lower=lower, trans=trans,
                             unit_diagonal=unit, kernel=_kernel(kname),
                             base_size=base)
        if unit:
            strict = np.tril(T, -1) if lower else np.triu(T, 1)
            op = strict + np.eye(n)
        else:
            op = np.tril(T) if lower else np.triu(T)
        op = op.T if trans else op
        got = op @ X if side == "left" else X @ op
        np.testing.assert_allclose(got, B, atol=1e-8)

    @given(st.integers(2, 60), st.integers(0, 10**6))
    @settings(max_examples=12)
    def test_inverse_consistency(self, n, seed):
        rng = np.random.default_rng(seed)
        T = 0.1 * np.tril(_rand(rng, n, n), -1) + np.diag(rng.uniform(1, 2, n))
        Tinv = invert_triangular(T, base_size=8)
        X = solve_triangular(T, np.eye(n), base_size=8)
        np.testing.assert_allclose(Tinv, X, atol=1e-9)


class TestPowerProperties:
    @given(st.integers(1, 30), st.integers(0, 6), st.integers(0, 6),
           kernels, st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_exponent_additivity(self, n, p, q, kname, seed):
        rng = np.random.default_rng(seed)
        A = _rand(rng, n, n) / (2.0 * np.sqrt(n))  # spectral radius < 1
        k = _kernel(kname)
        left = matrix_power(A, p + q, kernel=k)
        right = matrix_power(A, p, kernel=k) @ matrix_power(A, q, kernel=k)
        np.testing.assert_allclose(left, right, atol=1e-9)

    @given(st.integers(2, 25), st.integers(0, 5), st.floats(0.05, 0.5),
           st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_walk_counts_are_exact_integers(self, n, length, density, seed):
        rng = np.random.default_rng(seed)
        A = (rng.uniform(size=(n, n)) < density).astype(float)
        ref = np.linalg.matrix_power(A.astype(np.int64), length)
        got = count_walks(A, length, kernel=_kernel("strassen"))
        np.testing.assert_array_equal(got, ref)
