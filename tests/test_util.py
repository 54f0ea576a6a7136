"""Tests for repro.util: matrices, rng, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.matrices import block_views, flatten_blocks, peel_split, random_matrix
from repro.util.rng import default_rng, spawn_rngs
from repro.util.validation import check_matmul_dims, relative_error, require_2d


class TestBlockViews:
    def test_row_major_order(self):
        X = np.arange(24.0).reshape(4, 6)
        blocks = block_views(X, 2, 3)
        assert len(blocks) == 6
        np.testing.assert_array_equal(blocks[0], X[:2, :2])
        np.testing.assert_array_equal(blocks[1], X[:2, 2:4])
        np.testing.assert_array_equal(blocks[3], X[2:, :2])

    def test_views_not_copies(self):
        X = np.zeros((4, 4))
        blocks = block_views(X, 2, 2)
        blocks[0][:] = 7.0
        assert X[0, 0] == 7.0

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="not divisible"):
            block_views(np.zeros((5, 4)), 2, 2)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20)
    def test_flatten_roundtrip(self, r, c, br, bc):
        X = random_matrix(r * br, c * bc, r + c)
        blocks = block_views(X, r, c)
        np.testing.assert_array_equal(flatten_blocks(blocks, r, c), X)

    def test_flatten_count_check(self):
        with pytest.raises(ValueError):
            flatten_blocks([np.zeros((2, 2))], 2, 2)


class TestPeelSplit:
    def test_exact_division_empty_strips(self):
        X = np.ones((6, 8))
        core, right, bottom, corner = peel_split(X, 3, 4)
        assert core.shape == (6, 8)
        assert right.shape == (6, 0)
        assert bottom.shape == (0, 8)
        assert corner.shape == (0, 0)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=30)
    def test_pieces_partition_matrix(self, p, q, rd, cd):
        X = random_matrix(p, q, p * q % 97)
        core, right, bottom, corner = peel_split(X, rd, cd)
        assert core.shape[0] % rd == 0 and core.shape[1] % cd == 0
        top = np.hstack([core, right])
        bot = np.hstack([bottom, corner])
        np.testing.assert_array_equal(np.vstack([top, bot]), X)

    def test_views_share_memory(self):
        X = np.zeros((5, 5))
        core, *_ = peel_split(X, 2, 2)
        core[:] = 1.0
        assert X[0, 0] == 1.0 and X[4, 4] == 0.0


class TestRng:
    def test_default_rng_deterministic(self):
        assert default_rng().random() == default_rng().random()

    def test_passthrough(self):
        g = np.random.default_rng(1)
        assert default_rng(g) is g

    def test_spawn_independent(self):
        a, b = spawn_rngs(2, seed=0)
        assert a.random() != b.random()

    def test_spawn_reproducible(self):
        a1, _ = spawn_rngs(2, seed=3)
        a2, _ = spawn_rngs(2, seed=3)
        assert a1.random() == a2.random()

    def test_random_matrix_range(self):
        M = random_matrix(50, 50, 0)
        assert M.min() >= -1.0 and M.max() < 1.0


class TestValidation:
    def test_require_2d_passthrough(self):
        A = np.zeros((2, 3))
        assert require_2d(A) is A

    def test_require_2d_preserves_float32(self):
        A = np.zeros((2, 3), dtype=np.float32)
        assert require_2d(A).dtype == np.float32

    def test_require_2d_upcasts_ints(self):
        A = np.zeros((2, 3), dtype=np.int64)
        assert require_2d(A).dtype == np.float64

    def test_require_2d_rejects_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            require_2d(np.zeros(3))

    def test_check_matmul_dims(self):
        assert check_matmul_dims(np.zeros((2, 3)), np.zeros((3, 5))) == (2, 3, 5)
        with pytest.raises(ValueError):
            check_matmul_dims(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_relative_error_zero_ref(self):
        assert relative_error(np.ones((2, 2)), np.zeros((2, 2))) == 2.0

    def test_relative_error_identity(self):
        A = np.random.rand(3, 3)
        assert relative_error(A, A) == 0.0
