"""Cross-module property-based tests: the invariants that tie the
framework together."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import classical, get_algorithm
from repro.codegen import compile_algorithm
from repro.core import compose, transforms
from repro.core.recursion import multiply
from repro.core.stability import stability_factors
from repro.util.matrices import random_matrix

CATALOG = ["strassen", "winograd", "hk223", "hk224", "s233", "s234", "s333"]


class TestTransformThenExecute:
    """Any Prop-2.3 orbit member must still multiply correctly end-to-end
    (not just pass the tensor residual check)."""

    @given(st.sampled_from(CATALOG), st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_scaled_algorithm_multiplies(self, name, seed):
        rng = np.random.default_rng(seed)
        alg = get_algorithm(name)
        dx = rng.uniform(0.5, 2.0, alg.rank)
        dy = rng.uniform(0.5, 2.0, alg.rank)
        scaled = transforms.scale_columns(alg, dx, dy)
        A = random_matrix(13, 17, seed % 100)
        B = random_matrix(17, 11, seed % 100 + 1)
        C = multiply(A, B, scaled, steps=1)
        np.testing.assert_allclose(C, A @ B, rtol=1e-8, atol=1e-8)

    @given(st.sampled_from(CATALOG), st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_permuted_algorithm_multiplies(self, name, seed):
        rng = np.random.default_rng(seed)
        alg = get_algorithm(name)
        perm = rng.permutation(alg.rank)
        permuted = transforms.permute_columns(alg, perm)
        A = random_matrix(12, 12, seed % 97)
        B = random_matrix(12, 12, seed % 97 + 1)
        C = multiply(A, B, permuted, steps=2)
        np.testing.assert_allclose(C, A @ B, rtol=1e-8, atol=1e-8)


class TestCompositionExecutes:
    @given(st.sampled_from(["strassen", "hk223", "s233"]),
           st.integers(1, 3), st.sampled_from(["m", "k", "n"]))
    @settings(max_examples=12)
    def test_sum_with_classical_multiplies(self, name, extra, axis):
        alg = get_algorithm(name)
        m, k, n = alg.base_case
        if axis == "n":
            big = compose.direct_sum_n(alg, classical(m, k, extra))
        elif axis == "m":
            big = compose.direct_sum_m(alg, classical(extra, k, n))
        else:
            big = compose.direct_sum_k(alg, classical(m, extra, n))
        A = random_matrix(big.m * 5 + 1, big.k * 5 + 2, extra)
        B = random_matrix(big.k * 5 + 2, big.n * 5 + 1, extra + 1)
        C = multiply(A, B, big, steps=1)
        np.testing.assert_allclose(C, A @ B, rtol=1e-8, atol=1e-8)

    @given(st.sampled_from(["strassen", "hk223"]),
           st.sampled_from(["strassen", "classical212"]))
    @settings(max_examples=6)
    def test_kron_compiles_and_runs(self, a, b):
        f = get_algorithm(a)
        g = get_algorithm(b) if b != "classical212" else classical(2, 1, 2)
        big = compose.kron(f, g)
        mult = compile_algorithm(big)
        A = random_matrix(big.m * 3, big.k * 3, 0)
        B = random_matrix(big.k * 3, big.n * 3, 1)
        np.testing.assert_allclose(mult(A, B, steps=1), A @ B,
                                   rtol=1e-8, atol=1e-8)


class TestInvariantBookkeeping:
    @given(st.sampled_from(CATALOG))
    @settings(max_examples=7)
    def test_rank_bounds(self, name):
        """Strassen-Winograd lower bound: R >= 2mn + 2n? ... we assert the
        universal bounds: mn <= R <= mkn for exact algorithms."""
        alg = get_algorithm(name)
        m, k, n = alg.base_case
        assert m * n <= alg.rank <= m * k * n

    @given(st.sampled_from(CATALOG))
    @settings(max_examples=7)
    def test_exponent_below_three(self, name):
        alg = get_algorithm(name)
        assert 2.0 < alg.exponent < 3.0

    @given(st.sampled_from(CATALOG), st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_stability_factors_invariant_under_column_permutation(self, name, seed):
        alg = get_algorithm(name)
        rng = np.random.default_rng(seed)
        permuted = transforms.permute_columns(alg, rng.permutation(alg.rank))
        f1 = stability_factors(alg)
        f2 = stability_factors(permuted)
        assert f1.emax == pytest.approx(f2.emax)

    @given(st.sampled_from(CATALOG))
    @settings(max_examples=7)
    def test_permutation_family_preserves_nnz_total(self, name):
        """Props 2.1/2.2 permute factor entries; total nnz is invariant."""
        alg = get_algorithm(name)
        total = sum(alg.nnz())
        for member in transforms.permutation_family(alg).values():
            assert sum(member.nnz()) == total

