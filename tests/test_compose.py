"""Tests for algorithm composition (repro.core.compose)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import classical, get_algorithm, strassen
from repro.core import compose


def small_algorithms():
    return [
        classical(1, 1, 2),
        classical(2, 1, 1),
        classical(1, 2, 1),
        classical(2, 2, 1),
        strassen(),
    ]


class TestKron:
    def test_dims_and_rank(self):
        f = strassen()
        g = classical(1, 1, 2)
        fg = compose.kron(f, g)
        assert fg.base_case == (2, 2, 4)
        assert fg.rank == 14
        fg.validate()

    def test_strassen_squared(self):
        ss = compose.kron(strassen(), strassen())
        assert ss.base_case == (4, 4, 4)
        assert ss.rank == 49
        ss.validate()

    @given(st.sampled_from(range(5)), st.sampled_from(range(5)))
    @settings(max_examples=15)
    def test_kron_exactness_property(self, i, j):
        algs = small_algorithms()
        fg = compose.kron(algs[i], algs[j])
        fg.validate()

    def test_apa_flag_propagates(self):
        bini = get_algorithm("bini322")
        out = compose.kron(bini, classical(1, 1, 2))
        assert out.apa

    def test_name_default(self):
        fg = compose.kron(strassen(), classical(1, 1, 2))
        assert "strassen" in fg.name


class TestDirectSums:
    def test_sum_n(self):
        alg = compose.direct_sum_n(strassen(), classical(2, 2, 1))
        assert alg.base_case == (2, 2, 3)
        assert alg.rank == 11
        alg.validate()

    def test_sum_m(self):
        alg = compose.direct_sum_m(strassen(), classical(1, 2, 2))
        assert alg.base_case == (3, 2, 2)
        assert alg.rank == 11
        alg.validate()

    def test_sum_k(self):
        alg = compose.direct_sum_k(strassen(), classical(2, 1, 2))
        assert alg.base_case == (2, 3, 2)
        assert alg.rank == 11
        alg.validate()

    def test_sum_n_dim_mismatch(self):
        with pytest.raises(ValueError, match="m,k must agree"):
            compose.direct_sum_n(strassen(), classical(3, 2, 1))

    def test_sum_m_dim_mismatch(self):
        with pytest.raises(ValueError, match="k,n must agree"):
            compose.direct_sum_m(strassen(), classical(1, 3, 2))

    def test_sum_k_dim_mismatch(self):
        with pytest.raises(ValueError, match="m,n must agree"):
            compose.direct_sum_k(strassen(), classical(3, 1, 2))

    def test_nested_sums(self):
        # <2,2,5> = (<2,2,2> x <1,1,2>) (+)n <2,2,1>, the HK rank 18
        hk224 = compose.kron(strassen(), classical(1, 1, 2))
        hk225 = compose.direct_sum_n(hk224, classical(2, 2, 1))
        assert hk225.base_case == (2, 2, 5)
        assert hk225.rank == 18
        hk225.validate()

    @given(st.sampled_from(["m", "k", "n"]), st.integers(1, 3))
    @settings(max_examples=12)
    def test_sum_with_classical_pieces(self, axis, extra):
        s = strassen()
        if axis == "n":
            alg = compose.direct_sum_n(s, classical(2, 2, extra))
            assert alg.base_case == (2, 2, 2 + extra)
        elif axis == "m":
            alg = compose.direct_sum_m(s, classical(extra, 2, 2))
            assert alg.base_case == (2 + extra, 2, 2)
        else:
            alg = compose.direct_sum_k(s, classical(2, extra, 2))
            assert alg.base_case == (2, 2 + extra, 2)
        assert alg.rank == 7 + 4 * extra
        alg.validate()


class TestCompositionIdentities:
    def test_rank_multiplies_under_kron(self):
        a = get_algorithm("hk223")
        b = classical(1, 2, 1)
        assert compose.kron(a, b).rank == a.rank * b.rank

    def test_rank_adds_under_sums(self):
        a = get_algorithm("hk223")
        b = classical(2, 2, 4)
        assert compose.direct_sum_n(a, b).rank == a.rank + b.rank

    def test_kron_associative_in_dims(self):
        a, b, c = strassen(), classical(1, 1, 2), classical(1, 2, 1)
        left = compose.kron(compose.kron(a, b), c)
        right = compose.kron(a, compose.kron(b, c))
        assert left.base_case == right.base_case
        assert left.rank == right.rank
        left.validate()
        right.validate()
