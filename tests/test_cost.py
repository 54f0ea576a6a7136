"""Tests for the analytical cost models (repro.core.cost)."""

import math

import pytest

from repro.algorithms import classical, get_algorithm, strassen
from repro.core import cost


class TestFlops:
    def test_classical_formula(self):
        # F_C(N) = 2N^3 - N^2 (Section 2.1)
        for n in (1, 2, 16, 100):
            assert cost.classical_flops(n, n, n) == 2 * n**3 - n**2

    def test_strassen_closed_form_small(self):
        assert cost.strassen_flops(1) == 1
        # F_S(2) = 7*1 + 18*1 = 25 = 7*2^log2(7) - 6*4
        assert cost.strassen_flops(2) == 25

    def test_strassen_closed_form_requires_pow2(self):
        with pytest.raises(ValueError):
            cost.strassen_flops(48)

    def test_recursive_matches_closed_form_full_depth(self):
        s = strassen()
        for N in (2, 4, 8, 16):
            steps = int(math.log2(N))
            rec = cost.recursive_flops(s, N, N, N, steps)
            assert rec == cost.strassen_flops(N)

    def test_recursive_flops_zero_steps_is_classical(self):
        s = strassen()
        assert cost.recursive_flops(s, 10, 12, 14, 0) == cost.classical_flops(10, 12, 14)

    def test_recursive_flops_divisibility_check(self):
        with pytest.raises(ValueError):
            cost.recursive_flops(strassen(), 9, 8, 8, 1)

    def test_one_step_strassen_counts(self):
        """One step on NxN: 7 multiplies of N/2 + 18 block additions."""
        s = strassen()
        N = 8
        b = (N // 2) ** 2
        expected = 18 * b + 7 * cost.classical_flops(N // 2, N // 2, N // 2)
        assert cost.recursive_flops(s, N, N, N, 1) == expected

    def test_fast_beats_classical_eventually(self):
        s = strassen()
        assert cost.recursive_flops(s, 256, 256, 256, 4) < cost.classical_flops(256, 256, 256)


class TestSpeedupPerStep:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("strassen", 8 / 7 - 1),       # 14%
            ("hk223", 12 / 11 - 1),        # 9%
            ("hk225", 20 / 18 - 1),        # 11%
            ("hk224", 16 / 14 - 1),        # 14%
            ("s333", 27 / 23 - 1),         # 17%
            ("s233", 18 / 15 - 1),         # 20%
            ("s234", 24 / 20 - 1),         # 20%
            ("s244", 32 / 26 - 1),         # 23%
        ],
    )
    def test_table2_values(self, name, expected):
        """The multiplication-speedup-per-step column of Table 2."""
        assert cost.speedup_per_step(get_algorithm(name)) == pytest.approx(expected)


class TestReadWriteCounts:
    def test_strassen_pairwise(self):
        s = strassen()
        reads, writes = cost.addition_rw_counts(s, "pairwise")
        nnz = sum(s.nnz())  # 36
        assert writes == nnz
        assert reads == 2 * nnz - 2 * 7 - 4

    def test_strassen_write_once(self):
        s = strassen()
        reads, writes = cost.addition_rw_counts(s, "write_once")
        assert reads == sum(s.nnz())
        # 2R + MN minus the 4 copy-only chains (S3, S4, T2, T5)
        assert writes == 2 * 7 + 4 - 4

    def test_strassen_streaming(self):
        s = strassen()
        reads, writes = cost.addition_rw_counts(s, "streaming")
        assert reads == 4 + 4 + 7  # MK + KN + R

    def test_ordering_reads(self):
        """pairwise reads >= write-once reads >= streaming reads."""
        for name in ("strassen", "s233", "s244"):
            alg = get_algorithm(name)
            rp, _ = cost.addition_rw_counts(alg, "pairwise")
            rw, _ = cost.addition_rw_counts(alg, "write_once")
            rs, _ = cost.addition_rw_counts(alg, "streaming")
            assert rp >= rw >= rs

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            cost.addition_rw_counts(strassen(), "magic")


class TestPeelPricing:
    """Section 3.5 as it now runs: a peeled inner dimension costs the NumPy
    executors one in-place update of the core (a read and a write of C);
    the compiled kernels add the strip to rows ``form_C`` is storing
    anyway -- compiled and fused chains pay nothing for it."""

    CORE = 1024 * 1024 * 8 / 60e9   # one pass over C on the suite's machine

    @pytest.mark.parametrize("kw,passes", [
        (dict(), 2),
        (dict(backend="compiled"), 0),
        (dict(scheme="dfs", threads=2, dtype="float32"), 2),
    ])
    def test_inner_strip(self, kw, passes):
        alg = get_algorithm("strassen")
        cal_passes = passes / (kw.get("threads", 1)
                               * (2 if kw.get("dtype") == "float32" else 1))
        extra = (cost.plan_cost(alg, 1024, 513, 1024, 1, **kw)
                 - cost.plan_cost(alg, 1024, 512, 1024, 1, **kw))
        assert extra == pytest.approx(cal_passes * self.CORE, abs=1e-12)

    def test_fused_chains_pay_nothing_for_it(self, monkeypatch):
        from repro.codegen import cbackend

        alg = get_algorithm("strassen")
        for fused, passes in ((True, 0), (False, 2)):
            monkeypatch.setattr(cbackend, "available", lambda: fused)
            extra = (cost.plan_cost(alg, 1024, 513, 1024, 1, scheme="bfs",
                                    threads=2)
                     - cost.plan_cost(alg, 1024, 512, 1024, 1, scheme="bfs",
                                      threads=2))
            assert extra == pytest.approx(passes / 2 * self.CORE, abs=1e-12)


class TestCseDelta:
    def test_breakeven_at_four_uses(self):
        """Section 3.3: a length-2 subexpression must appear at least four
        times for elimination to reduce reads+writes."""
        assert cost.cse_rw_delta(2) > 0
        assert cost.cse_rw_delta(3) == 0
        assert cost.cse_rw_delta(4) < 0


class TestMemory:
    def test_bfs_memory_factor(self):
        # Strassen: R/(MN) = 7/4 per level (Section 4.2)
        assert cost.bfs_memory_factor(strassen()) == pytest.approx(7 / 4)
        assert cost.bfs_memory_factor(strassen(), 2) == pytest.approx((7 / 4) ** 2)

    def test_temporaries(self):
        s = strassen()
        assert cost.temporaries_memory(s, "pairwise") == 2
        assert cost.temporaries_memory(s, "write_once") == 2
        assert cost.temporaries_memory(s, "streaming") == 14

    def test_temporaries_unknown(self):
        with pytest.raises(ValueError):
            cost.temporaries_memory(strassen(), "x")


class TestExponents:
    def test_strassen_exponent(self):
        assert strassen().exponent == pytest.approx(math.log2(7))

    def test_composed_54_paper_value(self):
        """<3,3,6> o <3,6,3> o <6,3,3> at rank 40 each: omega ~= 2.7748."""
        omega = cost.composed_exponent(
            [(3, 3, 6), (3, 6, 3), (6, 3, 3)], [40, 40, 40]
        )
        assert omega == pytest.approx(3 * math.log(40) / math.log(54), rel=1e-12)
        assert omega < 2.78

    def test_our_composed_exponent_with_fallback_ranks(self):
        """With the rank-45 fallback the composition is no longer faster
        than Strassen -- recorded honestly in EXPERIMENTS.md."""
        from repro.algorithms import get_algorithm

        r = get_algorithm("s336").rank
        omega = cost.composed_exponent(
            [(3, 3, 6), (3, 6, 3), (6, 3, 3)], [r, r, r]
        )
        if r == 40:
            assert omega < math.log2(7)
        else:
            assert omega == pytest.approx(3 * math.log(r) / math.log(54))

    def test_classical_exponent_is_three(self):
        assert classical(3, 3, 3).exponent == pytest.approx(3.0)
