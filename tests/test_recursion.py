"""Tests for the reference recursive executor (repro.core.recursion)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm, strassen
from repro.core.recursion import (
    CutoffPolicy,
    combine_blocks,
    multiply,
    multiply_schedule,
)
from repro.util.matrices import random_matrix


class TestCombineBlocks:
    def test_all_zero_returns_none(self):
        blocks = [np.ones((2, 2))] * 3
        assert combine_blocks(blocks, np.zeros(3)) is None

    def test_single_unit_coeff_returns_view(self):
        blocks = [np.ones((2, 2)), np.zeros((2, 2))]
        out = combine_blocks(blocks, np.array([1.0, 0.0]))
        assert out is blocks[0]  # no copy

    def test_single_scaled(self):
        blocks = [np.ones((2, 2))]
        out = combine_blocks(blocks, np.array([-2.0]))
        np.testing.assert_array_equal(out, -2 * np.ones((2, 2)))
        assert out is not blocks[0]

    def test_multi_term_does_not_mutate_inputs(self):
        b0 = np.ones((2, 2))
        b1 = 2 * np.ones((2, 2))
        out = combine_blocks([b0, b1], np.array([1.0, -1.0]))
        np.testing.assert_array_equal(out, -np.ones((2, 2)))
        np.testing.assert_array_equal(b0, np.ones((2, 2)))

    def test_general_coefficients(self):
        b0 = np.full((2, 2), 3.0)
        b1 = np.full((2, 2), 5.0)
        out = combine_blocks([b0, b1], np.array([0.5, 2.0]))
        np.testing.assert_allclose(out, 0.5 * 3 + 2 * 5.0)


class TestMultiplyCorrectness:
    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    def test_strassen_power_of_two(self, steps):
        A = random_matrix(64, 64, 1)
        B = random_matrix(64, 64, 2)
        C = multiply(A, B, strassen(), steps=steps)
        np.testing.assert_allclose(C, A @ B, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize(
        "p,q,r", [(7, 7, 7), (13, 17, 19), (31, 8, 15), (9, 27, 5), (1, 5, 1)]
    )
    def test_dynamic_peeling_odd_sizes(self, p, q, r):
        A = random_matrix(p, q, p)
        B = random_matrix(q, r, r)
        C = multiply(A, B, strassen(), steps=2)
        np.testing.assert_allclose(C, A @ B, rtol=1e-9, atol=1e-9)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
           st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_any_dims_match_numpy(self, p, q, r, steps):
        A = random_matrix(p, q, p * 41 + q)
        B = random_matrix(q, r, r * 43 + q)
        C = multiply(A, B, get_algorithm("s234"), steps=steps)
        np.testing.assert_allclose(C, A @ B, rtol=1e-9, atol=1e-9)

    def test_every_catalog_algorithm(self, all_exact_algorithms):
        A = random_matrix(37, 41, 3)
        B = random_matrix(41, 29, 4)
        for alg in all_exact_algorithms:
            C = multiply(A, B, alg, steps=2)
            np.testing.assert_allclose(
                C, A @ B, rtol=1e-8, atol=1e-8,
                err_msg=f"algorithm {alg.name} wrong",
            )

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            multiply(np.ones((2, 3)), np.ones((4, 2)), strassen())

    def test_non_2d_raises(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            multiply(np.ones(3), np.ones((3, 2)), strassen())


class TestStepsAndCutoff:
    @pytest.mark.parametrize("custom", [False, True], ids=["gemm", "custom"])
    @pytest.mark.parametrize("dest", [False, True], ids=["fresh", "out"])
    def test_steps_zero_is_base(self, dest, custom):
        """The leaf: the default gemm writes ``out`` itself, the product
        of a custom base without ``out`` support is copied in."""
        calls = []

        def base(A, B):
            calls.append(A.shape)
            return A @ B

        A = random_matrix(8, 8, 0)
        out = np.empty((8, 8)) if dest else None
        C = multiply(A, A, strassen(), steps=0,
                     base=base if custom else None, out=out)
        assert calls == ([(8, 8)] if custom else [])
        assert out is None or C is out
        np.testing.assert_array_equal(C, A @ A)

    def test_steps_counts_leaf_calls(self):
        calls = []

        def base(A, B):
            calls.append(1)
            return A @ B

        A = random_matrix(8, 8, 0)
        multiply(A, A, strassen(), steps=1, base=base)
        assert len(calls) == 7
        calls.clear()
        multiply(A, A, strassen(), steps=2, base=base)
        assert len(calls) == 49

    def test_min_dim_cutoff_stops_recursion(self):
        calls = []

        def base(A, B):
            calls.append(A.shape)
            return A @ B

        A = random_matrix(8, 8, 0)
        # blocks would be 4x4 then 2x2; min_dim=4 allows only one level
        policy = CutoffPolicy(max_steps=5, min_dim=4)
        C = multiply(A, A, strassen(), base=base, cutoff=policy)
        np.testing.assert_allclose(C, A @ A, atol=1e-10)
        assert len(calls) == 7

    def test_small_matrix_goes_straight_to_base(self):
        A = random_matrix(1, 1, 0)
        C = multiply(A, A, strassen(), steps=3)
        np.testing.assert_allclose(C, A @ A)

    def test_peeling_count_matches_flops_model(self):
        """With peeling, leaves of a 10x10x10 Strassen step are 5x5."""
        shapes = []

        def base(A, B):
            shapes.append((A.shape, B.shape))
            return A @ B

        A = random_matrix(10, 10, 0)
        multiply(A, A, strassen(), steps=1, base=base)
        assert shapes.count(((5, 5), (5, 5))) == 7


class TestMultiplySchedule:
    def test_empty_schedule_is_base(self):
        A = random_matrix(5, 6, 0)
        B = random_matrix(6, 4, 1)
        np.testing.assert_allclose(multiply_schedule(A, B, []), A @ B)

    def test_two_level_mixed_schedule(self):
        A = random_matrix(6 * 4, 6 * 4, 2)
        B = random_matrix(6 * 4, 6 * 4, 3)
        sched = [get_algorithm("s234"), get_algorithm("s432")]
        C = multiply_schedule(A, B, sched)
        np.testing.assert_allclose(C, A @ B, rtol=1e-9, atol=1e-9)

    def test_schedule_with_peeling(self):
        A = random_matrix(53, 47, 4)
        B = random_matrix(47, 39, 5)
        sched = [strassen(), get_algorithm("s233")]
        C = multiply_schedule(A, B, sched)
        np.testing.assert_allclose(C, A @ B, rtol=1e-9, atol=1e-9)

    def test_composed_54_shape_identity(self):
        """One level of each <3,3,6> permutation = the <54,54,54> algorithm
        (Section 5.2); verify on a (54, 54) problem."""
        A = random_matrix(54, 54, 6)
        B = random_matrix(54, 54, 7)
        sched = [get_algorithm("s336"), get_algorithm("s363"), get_algorithm("s633")]
        C = multiply_schedule(A, B, sched)
        np.testing.assert_allclose(C, A @ B, rtol=1e-8, atol=1e-8)
