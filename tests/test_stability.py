"""Tests for the numerical-stability module (repro.core.stability)."""

import numpy as np
import pytest

from repro.algorithms import classical, get_algorithm, strassen
from repro.core import recursion
from repro.core.stability import (
    ErrorMeasurement,
    diagonal_rescale_for_stability,
    error_bound,
    measure_error_growth,
    rank_by_stability,
    stability_factors,
)
from repro.util.matrices import random_matrix


class TestFactors:
    def test_classical_baseline(self):
        f = stability_factors(classical(2, 2, 2))
        assert f.alpha == 1.0 and f.beta == 1.0
        assert f.gamma == 2.0  # each output sums K=2 products
        assert f.emax == 2.0

    def test_strassen_larger_than_classical(self):
        fs = stability_factors(strassen())
        fc = stability_factors(classical(2, 2, 2))
        assert fs.emax > fc.emax  # the well-known stability price

    def test_growth_compounds(self):
        f = stability_factors(strassen())
        assert f.growth(2) == pytest.approx(f.emax ** 2)

    def test_apa_factors_blow_up(self):
        """APA factors carry 1/lambda-scale entries: enormous emax."""
        f_apa = stability_factors(get_algorithm("bini322"))
        f_exact = stability_factors(get_algorithm("hk223"))
        assert f_apa.emax > 2 * f_exact.emax


@pytest.mark.parametrize("name", ["s233", "s334", "s433"])
def test_error_bound_covers_a_float_coefficient_residual(name):
    """An ALS entry's coefficients miss the matmul tensor by ~5e-12, so
    one level on an 11-block grid is ~1e-12 off -- above the rounding
    term alone (~7e-13); the bound adds the residual per level."""
    alg = get_algorithm(name)
    m, k, n = alg.base_case
    A = random_matrix(11 * m, 11 * k, 0)
    B = random_matrix(11 * k, 11 * n, 1)
    ref = A @ B
    C = recursion.multiply(A, B, alg, steps=1)
    rel = np.linalg.norm(C - ref) / np.linalg.norm(ref)
    assert rel <= error_bound(alg, 1, 11 * k, "float64")


class TestMeasurement:
    def test_exact_algorithm_stays_near_eps(self):
        m = measure_error_growth(strassen(), n=64, steps=(0, 1, 2), seed=1)
        assert all(e < 1e-12 for e in m.rel_errors)

    def test_error_grows_with_depth(self):
        m = measure_error_growth(strassen(), n=64, steps=(0, 3), seed=2)
        assert m.rel_errors[1] >= m.rel_errors[0]

    def test_apa_error_dominates(self):
        exact = measure_error_growth(get_algorithm("s333"), n=54, steps=(1,))
        apa = measure_error_growth(get_algorithm("bini322"), n=54, steps=(1,))
        assert apa.rel_errors[0] > 100 * exact.rel_errors[0]

    def test_float32_floor(self):
        """Single precision: error ~1e-7, far better than our APA entries --
        the paper's 'just use float32 instead of APA' remark."""
        m32 = measure_error_growth(strassen(), n=64, steps=(1,), dtype=np.float32)
        apa = measure_error_growth(get_algorithm("bini322"), n=64, steps=(1,))
        assert 1e-8 < m32.rel_errors[0] < 1e-5
        assert m32.rel_errors[0] < apa.rel_errors[0]

    def test_growth_per_step_metric(self):
        m = ErrorMeasurement("x", [0, 1, 2], [1e-16, 2e-16, 4e-16])
        assert m.growth_per_step == pytest.approx(2.0)

    def test_growth_per_step_single_point(self):
        assert ErrorMeasurement("x", [1], [1e-15]).growth_per_step == 1.0


class TestRescaling:
    def test_rescale_preserves_exactness(self):
        alg = get_algorithm("s244")
        eq = diagonal_rescale_for_stability(alg)
        eq.validate()
        assert eq.rank == alg.rank

    def test_rescale_balances_norms(self):
        alg = get_algorithm("s244")
        eq = diagonal_rescale_for_stability(alg)
        for r in range(eq.rank):
            nu = np.linalg.norm(eq.U[:, r], 1)
            nv = np.linalg.norm(eq.V[:, r], 1)
            nw = np.linalg.norm(eq.W[:, r], 1)
            assert max(nu, nv, nw) / min(nu, nv, nw) < 1.0001

    def test_rescale_does_not_hurt_error(self):
        alg = get_algorithm("s244")
        eq = diagonal_rescale_for_stability(alg)
        m_raw = measure_error_growth(alg, n=64, steps=(2,), seed=3)
        m_eq = measure_error_growth(eq, n=64, steps=(2,), seed=3)
        assert m_eq.rel_errors[0] < 10 * m_raw.rel_errors[0]


class TestRanking:
    def test_rank_by_stability_sorted(self):
        algs = {
            "classical": classical(2, 2, 2),
            "strassen": strassen(),
            "bini": get_algorithm("bini322"),
        }
        ranked = rank_by_stability(algs)
        names = [n for n, _ in ranked]
        assert names[0] == "classical"
        assert names[-1] == "bini"
        scores = [s for _, s in ranked]
        assert scores == sorted(scores)
