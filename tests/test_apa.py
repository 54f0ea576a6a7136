"""Tests for APA machinery (repro.core.apa) and the APA catalog entries."""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.core import apa
from repro.core import tensor as tz
from repro.util.matrices import random_matrix


class TestOptimalLambda:
    def test_sqrt_eps(self):
        lam = apa.optimal_lambda()
        assert lam == pytest.approx(np.sqrt(np.finfo(np.float64).eps))

    def test_custom_eps(self):
        assert apa.optimal_lambda(1e-8) == pytest.approx(1e-4)


class TestLaurentMachinery:
    def test_eval_poly(self):
        p = {0: np.array([[1.0]]), -1: np.array([[2.0]]), 1: np.array([[3.0]])}
        v = apa.eval_poly(p, 0.5)
        assert v[0, 0] == pytest.approx(1.0 + 2.0 / 0.5 + 3.0 * 0.5)

    def test_eval_poly_empty(self):
        with pytest.raises(ValueError):
            apa.eval_poly({}, 0.5)

    def test_w_state_border_rank(self):
        """The rank-2 Laurent decomposition converges O(lambda) to the
        rank-3 W-state tensor: the canonical APA phenomenon."""
        T = apa.w_state_tensor()
        Up, Vp, Wp = apa.w_state_apa_factors()
        lams = [1e-1, 1e-2, 1e-3]
        residuals = []
        for lam in lams:
            U = apa.eval_poly(Up, lam)
            V = apa.eval_poly(Vp, lam)
            W = apa.eval_poly(Wp, lam)
            residuals.append(tz.residual(T, U, V, W))
        # linear decay in lambda
        assert residuals[1] / residuals[0] == pytest.approx(0.1, rel=0.3)
        assert residuals[2] / residuals[1] == pytest.approx(0.1, rel=0.3)

    def test_w_state_entries_blow_up(self):
        _, _, Wp = apa.w_state_apa_factors()
        w_small = apa.eval_poly(Wp, 1e-6)
        assert np.abs(w_small).max() > 1e5

    def test_laurent_algorithm_at(self):
        """A trivially exact 'APA' (no negative powers) instantiates fine."""
        from repro.algorithms import strassen

        s = strassen()
        la = apa.LaurentAlgorithm(
            2, 2, 2, {0: s.U}, {0: s.V}, {0: s.W}, name="strassen-as-apa"
        )
        assert la.rank == 7
        inst = la.at(1e-3)
        assert inst.apa
        assert inst.check_exact()

    def test_laurent_at_invalid_lambda(self):
        from repro.algorithms import strassen

        s = strassen()
        la = apa.LaurentAlgorithm(2, 2, 2, {0: s.U}, {0: s.V}, {0: s.W})
        with pytest.raises(ValueError):
            la.at(0.0)

    def test_residual_curve_monotone(self):
        from repro.algorithms import strassen

        s = strassen()
        la = apa.LaurentAlgorithm(2, 2, 2, {0: s.U, 1: 0.1 * np.ones_like(s.U)},
                                  {0: s.V}, {0: s.W})
        curve = la.residual_curve([1e-1, 1e-2, 1e-3])
        assert curve[0] > curve[1] > curve[2]


class TestErrorModel:
    def test_error_grows_with_steps(self):
        assert apa.apa_error_model(1e-4, 2) > apa.apa_error_model(1e-4, 1)

    def test_optimal_lambda_near_minimum(self):
        lam_opt = apa.optimal_lambda()
        e_opt = apa.apa_error_model(lam_opt, 1)
        assert e_opt <= apa.apa_error_model(lam_opt * 100, 1)
        assert e_opt <= apa.apa_error_model(lam_opt / 100, 1)


class TestApaCatalogEntries:
    @pytest.mark.parametrize("name,rank", [("bini322", 10), ("schonhage333", 21)])
    def test_ranks(self, name, rank):
        alg = get_algorithm(name)
        assert alg.rank == rank
        assert alg.apa

    def test_bini_is_approximate_but_useful(self):
        """Bini-rank multiplication: result close to A @ B but far from
        machine precision (the numerical price of APA, Sections 2.2.3/5.1)."""
        from repro.codegen import compile_algorithm

        alg = get_algorithm("bini322")
        f = compile_algorithm(alg)
        A = random_matrix(30, 20, 0)
        B = random_matrix(20, 20, 1)
        rel = np.linalg.norm(f(A, B, steps=1) - A @ B) / np.linalg.norm(A @ B)
        assert 1e-13 < rel < 0.2

    def test_apa_error_compounds_with_recursion(self):
        from repro.codegen import compile_algorithm

        alg = get_algorithm("bini322")
        f = compile_algorithm(alg)
        A = random_matrix(36, 24, 2)
        B = random_matrix(24, 24, 3)
        ref = A @ B
        e1 = np.linalg.norm(f(A, B, steps=1) - ref)
        e2 = np.linalg.norm(f(A, B, steps=2) - ref)
        assert e2 >= 0.5 * e1  # deeper recursion never materially better

    def test_float32_beats_apa(self):
        """The paper's remark (Section 5.1) quantified: float32 Strassen,
        an equally 'reduced precision', is more accurate than the APA
        entries."""
        import repro

        A = random_matrix(60, 40, 4)
        B = random_matrix(40, 44, 5)
        ref = A @ B
        C32 = repro.multiply(A.astype(np.float32), B.astype(np.float32),
                             algorithm="strassen", steps=1)
        Capa = repro.multiply(A, B, algorithm="bini322", steps=1)
        assert (np.linalg.norm(C32 - ref) < np.linalg.norm(Capa - ref))
