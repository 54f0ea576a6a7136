"""Tests for the code generator (repro.codegen.generator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import classical, get_algorithm, strassen, winograd
from repro.codegen import STRATEGIES, compile_algorithm, generate_source
from repro.codegen.generator import _MODULE_CACHE, fingerprint
from repro.core.recursion import multiply as reference_multiply
from repro.util.matrices import random_matrix


class TestSourceGeneration:
    def test_source_is_valid_python(self):
        src = generate_source(strassen())
        compile(src, "<test>", "exec")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("cse", [False, True])
    def test_all_variants_compile(self, strategy, cse):
        src = generate_source(get_algorithm("s233"), strategy, cse)
        compile(src, "<test>", "exec")

    def test_header_mentions_config(self):
        src = generate_source(strassen(), "streaming", True)
        assert "streaming" in src and "cse=True" in src

    def test_aliases_in_source(self):
        """Strassen's S3 = A11 must be an alias, not a copy."""
        src = generate_source(strassen(), "write_once")
        assert "S2 = A0" in src  # S3 in paper numbering = S2 zero-based

    def test_invalid_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            generate_source(strassen(), "nope")

    def test_write_source(self, tmp_path):
        from repro.codegen import write_source

        p = tmp_path / "gen.py"
        write_source(strassen(), p)
        assert "def multiply" in p.read_text()


class TestCompiledCorrectness:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("cse", [False, True])
    def test_strassen_matches_numpy(self, strategy, cse):
        f = compile_algorithm(strassen(), strategy, cse)
        A = random_matrix(48, 48, 0)
        B = random_matrix(48, 48, 1)
        np.testing.assert_allclose(f(A, B, steps=2), A @ B, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("dest", [False, True], ids=["fresh", "out"])
    @pytest.mark.parametrize("name", ["winograd", "hk225", "s233", "s234", "s244", "s333"])
    def test_catalog_matches_reference(self, name, dest):
        alg = get_algorithm(name)
        f = compile_algorithm(alg, "write_once")
        A = random_matrix(37, 53, 2)
        B = random_matrix(53, 31, 3)
        ref = reference_multiply(A, B, alg, steps=2)
        out = np.empty((37, 31)) if dest else None
        got = f(A, B, steps=2, out=out)
        assert out is None or got is out
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30),
           st.sampled_from(STRATEGIES))
    @settings(max_examples=20, deadline=None)
    def test_property_any_dims(self, p, q, r, strategy):
        f = compile_algorithm(get_algorithm("s333"), strategy)
        A = random_matrix(p, q, p + q)
        B = random_matrix(q, r, q + r)
        np.testing.assert_allclose(f(A, B, steps=1), A @ B, rtol=1e-9, atol=1e-9)

    def test_steps_zero_calls_base(self):
        f = compile_algorithm(strassen())
        calls = []

        def base(A, B):
            calls.append(1)
            return A @ B

        A = random_matrix(16, 16, 0)
        f(A, A, steps=0, base=base)
        assert calls == [1]

    def test_leaf_count(self):
        f = compile_algorithm(strassen())
        calls = []

        def base(A, B):
            calls.append(1)
            return A @ B

        A = random_matrix(16, 16, 0)
        f(A, A, steps=2, base=base)
        assert len(calls) == 49

    @pytest.mark.parametrize("b_rows,alias,match", [
        (3, False, "inner dimensions"), (4, True, "overlap"),
    ], ids=["dims", "out-aliases-A"])
    def test_bad_operands_rejected(self, b_rows, alias, match):
        f = compile_algorithm(strassen())
        A = np.ones((4, 4))
        with pytest.raises(ValueError, match=match):
            f(A, np.ones((b_rows, 4)), out=A if alias else None)

    def test_classical_generated(self):
        f = compile_algorithm(classical(2, 3, 2))
        A = random_matrix(10, 9, 0)
        B = random_matrix(9, 8, 1)
        np.testing.assert_allclose(f(A, B, steps=1), A @ B, rtol=1e-10, atol=1e-10)

    def test_pipe_scalars_off(self):
        f = compile_algorithm(get_algorithm("bini322"), pipe_scalars=False)
        A = random_matrix(9, 8, 0)
        B = random_matrix(8, 10, 1)
        C = f(A, B, steps=1)
        # APA: accuracy limited by the decomposition residual
        rel = np.linalg.norm(C - A @ B) / np.linalg.norm(A @ B)
        assert rel < 0.2

    def test_int_inputs_coerced(self):
        f = compile_algorithm(strassen())
        A = np.arange(16).reshape(4, 4)
        B = np.arange(16).reshape(4, 4)
        np.testing.assert_allclose(f(A, B), (A @ B).astype(float))


class TestCaching:
    def test_fingerprint_stable(self):
        assert fingerprint(strassen(), "write_once", False) == fingerprint(
            strassen(), "write_once", False
        )

    def test_fingerprint_varies(self):
        f1 = fingerprint(strassen(), "write_once", False)
        assert f1 != fingerprint(strassen(), "pairwise", False)
        assert f1 != fingerprint(strassen(), "write_once", True)
        assert f1 != fingerprint(winograd(), "write_once", False)

    def test_compile_cached(self):
        f1 = compile_algorithm(strassen(), "write_once", False)
        f2 = compile_algorithm(strassen(), "write_once", False)
        assert f1 is f2
        key = fingerprint(strassen(), "write_once", False)
        assert key in _MODULE_CACHE


class TestStrategyBehaviour:
    def test_streaming_uses_runtime_calls(self):
        src = generate_source(strassen(), "streaming")
        assert "streaming_combine" in src and "streaming_output" in src

    def test_write_once_uses_out_kwarg(self):
        src = generate_source(strassen(), "write_once")
        assert "out=S0" in src

    def test_pairwise_avoids_out_kwarg(self):
        assert "out=S0" not in generate_source(strassen(), "pairwise")

    def test_all_strategies_same_result(self):
        A = random_matrix(24, 36, 5)
        B = random_matrix(36, 20, 6)
        alg = get_algorithm("s234")
        results = [
            compile_algorithm(alg, s, c)(A, B, steps=2)
            for s in STRATEGIES
            for c in (False, True)
        ]
        for r in results[1:]:
            np.testing.assert_allclose(r, results[0], rtol=1e-9, atol=1e-9)
