"""Direct tests for the generated-code runtime (repro.codegen.runtime)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import runtime
from repro.util.matrices import random_matrix


class TestAxpy:
    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.5, -2.5])
    def test_matches_reference(self, alpha):
        out = random_matrix(10, 8, 0)
        x = random_matrix(10, 8, 1)
        expected = out + alpha * x
        runtime.axpy(out, x, alpha)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, -2.5, 3.0])
    def test_scratch_branch_is_bitwise_equal_and_allocation_free(self, alpha):
        from repro.core.workspace import track_allocations

        ref = random_matrix(256, 256, 2)
        x = random_matrix(256, 256, 3)
        out = ref.copy()
        runtime.axpy(ref, x, alpha)  # allocating general branch
        scratch = np.empty(out.nbytes, dtype=np.uint8)
        with track_allocations() as rep:
            runtime.axpy(out, x, alpha, scratch)
        np.testing.assert_array_equal(out, ref)
        assert rep.peak_bytes < out.nbytes // 2  # no matrix-sized temporary

    def test_numpy_scalar_alpha_does_not_upcast_float32(self):
        # NEP 50: a float64 numpy scalar would silently upcast the product
        out = np.ones((4, 4), dtype=np.float32)
        x = np.ones((4, 4), dtype=np.float32)
        scratch = np.empty(out.nbytes, dtype=np.uint8)
        runtime.axpy(out, x, np.float64(0.5), scratch)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, 1.5)


class TestPeelApply:
    def test_no_peeling_fast_path(self):
        A = random_matrix(8, 8, 0)
        B = random_matrix(8, 8, 1)
        calls = []

        def core(a, b):
            calls.append((a.shape, b.shape))
            return a @ b

        C = runtime.peel_apply(A, B, 2, 2, 2, core)
        np.testing.assert_allclose(C, A @ B, atol=1e-12)
        assert calls == [((8, 8), (8, 8))]

    def test_core_gets_divisible_dims(self):
        A = random_matrix(7, 8, 3)
        B = random_matrix(8, 9, 4)
        seen = {}

        def core(a, b):
            seen["a"] = a.shape
            seen["b"] = b.shape
            return a @ b

        runtime.peel_apply(A, B, 3, 2, 4, core)
        assert seen["a"] == (6, 8)  # 7->6 rows, 8 divisible by 2
        assert seen["b"] == (8, 8)  # 9->8 cols

    @given(st.integers(2, 25), st.integers(2, 25), st.integers(2, 25))
    @settings(max_examples=25, deadline=None)
    def test_any_shape_matches_matmul(self, p, q, r):
        A = random_matrix(p, q, p + 2 * q)
        B = random_matrix(q, r, q + 2 * r)
        C = runtime.peel_apply(A, B, 2, 3, 2, lambda a, b: a @ b)
        np.testing.assert_allclose(C, A @ B, atol=1e-12)


class TestStackBlocks:
    def test_row_major_block_order(self):
        X = np.arange(16.0).reshape(4, 4)
        stack = runtime.stack_blocks(X, 2, 2)
        assert stack.shape == (4, 4)
        np.testing.assert_array_equal(stack[0], X[:2, :2].reshape(-1))
        np.testing.assert_array_equal(stack[1], X[:2, 2:].reshape(-1))
        np.testing.assert_array_equal(stack[2], X[2:, :2].reshape(-1))

    def test_dtype_preserved(self):
        X = np.ones((4, 6), dtype=np.float32)
        assert runtime.stack_blocks(X, 2, 3).dtype == np.float32


class TestStreamingPrimitives:
    def test_combine_matches_manual(self):
        X = random_matrix(6, 6, 5)
        # two chains over a 2x2 block grid
        chain = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 2.0, -1.0, 0.0]])
        out = runtime.streaming_combine(X, 2, 2, None, chain)
        blocks = [X[:3, :3], X[:3, 3:], X[3:, :3], X[3:, 3:]]
        np.testing.assert_allclose(out[0], blocks[0] + blocks[3], atol=1e-12)
        np.testing.assert_allclose(out[1], 2 * blocks[1] - blocks[2], atol=1e-12)

    def test_combine_with_defs(self):
        X = random_matrix(4, 4, 6)
        blocks = [X[:2, :2], X[:2, 2:], X[2:, :2], X[2:, 2:]]
        defs = np.array([[1.0, 1.0, 0.0, 0.0]])  # Y0 = A0 + A1
        chain = np.array([[0.0, 0.0, 1.0, 0.0, 2.0]])  # S0 = A2 + 2*Y0
        out = runtime.streaming_combine(X, 2, 2, defs, chain)
        np.testing.assert_allclose(
            out[0], blocks[2] + 2 * (blocks[0] + blocks[1]), atol=1e-12
        )

    def test_output_scatter(self):
        p = r = 4
        products = [random_matrix(2, 2, i) for i in range(3)]
        # C blocks (2x2 grid of 2x2): c0 = m0, c1 = m1 - m2, c2 = 0, c3 = m2
        chain = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, -1.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        C = runtime.streaming_output(products, None, chain, p, r, 2, 2)
        np.testing.assert_allclose(C[:2, :2], products[0], atol=1e-12)
        np.testing.assert_allclose(C[:2, 2:], products[1] - products[2], atol=1e-12)
        np.testing.assert_allclose(C[2:, :2], 0.0, atol=1e-12)
        np.testing.assert_allclose(C[2:, 2:], products[2], atol=1e-12)

    def test_output_with_defs(self):
        products = [random_matrix(3, 3, i) for i in range(2)]
        defs = np.array([[1.0, 1.0]])  # Y = M0 + M1
        chain = np.array([[0.0, 0.0, 1.0]])  # C0 = Y
        C = runtime.streaming_output(products, defs, chain, 3, 3, 1, 1)
        np.testing.assert_allclose(C, products[0] + products[1], atol=1e-12)


class TestDefaultBase:
    def test_is_gemm(self):
        A = random_matrix(5, 4, 0)
        B = random_matrix(4, 6, 1)
        np.testing.assert_allclose(runtime.default_base(A, B), A @ B)
