"""Tests for Props. 2.1-2.3 transforms (repro.core.transforms)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import classical, get_algorithm, strassen
from repro.core import transforms as tf


class TestVecTranspose:
    def test_small_case(self):
        A = np.arange(6.0).reshape(2, 3)
        P = tf.vec_transpose_permutation(2, 3)
        np.testing.assert_array_equal(P @ A.reshape(-1), A.T.reshape(-1))

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=15)
    def test_property(self, r, c):
        rng = np.random.default_rng(r * 10 + c)
        A = rng.standard_normal((r, c))
        P = tf.vec_transpose_permutation(r, c)
        np.testing.assert_allclose(P @ A.reshape(-1), A.T.reshape(-1))

    def test_is_permutation_matrix(self):
        P = tf.vec_transpose_permutation(3, 4)
        assert (P.sum(axis=0) == 1).all() and (P.sum(axis=1) == 1).all()


class TestPermutations:
    def test_swap_mn_dims(self):
        alg = classical(2, 3, 4)
        t = tf.swap_mn(alg)
        assert t.base_case == (4, 3, 2)
        t.validate()

    def test_rotate_dims(self):
        alg = classical(2, 3, 4)
        t = tf.rotate(alg)
        assert t.base_case == (4, 2, 3)
        t.validate()

    def test_rank_preserved(self):
        s = get_algorithm("s244")
        assert tf.swap_mn(s).rank == s.rank
        assert tf.rotate(s).rank == s.rank

    def test_family_has_six_members_distinct_dims(self):
        fam = tf.permutation_family(classical(2, 3, 4))
        assert len(fam) == 6
        for alg in fam.values():
            alg.validate()

    def test_family_collapses_on_repeats(self):
        fam = tf.permutation_family(strassen())
        assert set(fam) == {(2, 2, 2)}
        fam = tf.permutation_family(get_algorithm("hk223"))
        assert set(fam) == {(2, 2, 3), (2, 3, 2), (3, 2, 2)}

    def test_permute_to(self):
        alg = tf.permute_to(get_algorithm("s244"), 4, 2, 4)
        assert alg.base_case == (4, 2, 4)
        assert alg.rank == 26
        alg.validate()

    def test_permute_to_invalid(self):
        with pytest.raises(ValueError, match="not a permutation"):
            tf.permute_to(strassen(), 2, 2, 3)

    def test_double_swap_is_identity_dims(self):
        alg = classical(2, 3, 4)
        back = tf.swap_mn(tf.swap_mn(alg))
        assert back.base_case == alg.base_case
        back.validate()

    def test_rotate_three_times_identity_dims(self):
        alg = classical(2, 3, 4)
        r3 = tf.rotate(tf.rotate(tf.rotate(alg)))
        assert r3.base_case == alg.base_case
        r3.validate()


class TestIsotropy:
    """Prop. 2.3: transformations within a fixed base case."""

    def test_permute_columns(self):
        s = strassen()
        perm = np.array([6, 5, 4, 3, 2, 1, 0])
        t = tf.permute_columns(s, perm)
        t.validate()
        np.testing.assert_array_equal(t.U[:, 0], s.U[:, 6])

    def test_permute_columns_invalid(self):
        with pytest.raises(ValueError):
            tf.permute_columns(strassen(), np.array([0, 0, 1, 2, 3, 4, 5]))

    def test_scale_columns_exact(self):
        s = strassen()
        rng = np.random.default_rng(3)
        dx = rng.uniform(0.5, 2.0, 7)
        dy = rng.uniform(0.5, 2.0, 7)
        t = tf.scale_columns(s, dx, dy)
        t.validate()

    def test_scale_columns_zero_rejected(self):
        dx = np.ones(7); dx[3] = 0.0
        with pytest.raises(ValueError, match="nonsingular"):
            tf.scale_columns(strassen(), dx, np.ones(7))

    def test_scale_columns_shape_rejected(self):
        with pytest.raises(ValueError):
            tf.scale_columns(strassen(), np.ones(6), np.ones(7))

    @given(st.integers(0, 1000))
    @settings(max_examples=10)
    def test_basis_transform_preserves_exactness(self, seed):
        rng = np.random.default_rng(seed)
        s = get_algorithm("s233")
        m, k, n = s.base_case
        # well-conditioned random transforms
        X = np.eye(m) + 0.3 * rng.standard_normal((m, m))
        Y = np.eye(k) + 0.3 * rng.standard_normal((k, k))
        Z = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        t = tf.basis_transform(s, X, Y, Z)
        assert t.residual() < 1e-8

    def test_basis_transform_shape_check(self):
        with pytest.raises(ValueError):
            tf.basis_transform(strassen(), np.eye(3), np.eye(2), np.eye(2))

    def test_basis_transform_identity_is_noop(self):
        s = strassen()
        t = tf.basis_transform(s, np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_allclose(t.U, s.U, atol=1e-12)
        np.testing.assert_allclose(t.V, s.V, atol=1e-12)
        np.testing.assert_allclose(t.W, s.W, atol=1e-12)
