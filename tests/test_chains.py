"""Tests for addition-chain extraction (repro.codegen.chains)."""

import numpy as np
import pytest

from repro.algorithms import classical, get_algorithm, strassen
from repro.codegen.chains import Chain, Term, extract_chains


class TestExtraction:
    def test_strassen_chain_counts(self):
        prog = extract_chains(strassen())
        assert len(prog.s_chains) == 7
        assert len(prog.t_chains) == 7
        assert len(prog.c_chains) == 4

    def test_strassen_s1_terms(self):
        prog = extract_chains(strassen())
        s1 = prog.s_chains[0]
        assert {(t.coeff, t.source) for t in s1.terms} == {(1.0, "A0"), (1.0, "A3")}

    def test_aliases_detected(self):
        prog = extract_chains(strassen())
        # S3 = A11, S4 = A22, T2 = B11, T5 = B22
        assert prog.s_chains[2].is_alias()
        assert prog.s_chains[3].is_alias()
        assert prog.t_chains[1].is_alias()
        assert prog.t_chains[4].is_alias()

    def test_additions_count_strassen(self):
        """Strassen: 4+4 two-term chains on each side -> 8 additions per
        side... precisely nnz - R = 5 per side, plus 8 for C."""
        prog = extract_chains(strassen())
        assert sum(c.additions for c in prog.s_chains) == 12 - 7
        assert sum(c.additions for c in prog.t_chains) == 12 - 7
        assert sum(c.additions for c in prog.c_chains) == 12 - 4
        assert prog.total_additions == 5 + 5 + 8
        assert prog.st_additions == 10

    def test_classical_additions(self):
        """Classical <2,2,2>: no S/T additions, and the four C additions of
        Section 2.1 (C11 = M1 + M2, ...)."""
        prog = extract_chains(classical(2, 2, 2))
        assert prog.st_additions == 0
        assert prog.total_additions == 4


class TestScalarPiping:
    def test_piping_folds_scalars_into_w(self):
        """A column with U = 2*e_i, V = e_j must become aliases with W
        scaled by 2."""
        from repro.core.algorithm import FastAlgorithm

        base = classical(1, 1, 1)
        alg = FastAlgorithm(1, 1, 1, 2.0 * base.U, base.V, 0.5 * base.W, name="scaled")
        alg.validate()
        prog = extract_chains(alg)
        assert prog.s_chains[0].is_alias()
        assert prog.W_effective[0, 0] == pytest.approx(1.0)

    def test_piping_preserves_semantics(self):
        """Evaluate the chain program symbolically for a piped algorithm and
        compare against the raw factors."""
        alg = get_algorithm("bini322")  # APA factors have non-unit scalars
        prog = extract_chains(alg)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(alg.m * alg.k)
        b = rng.standard_normal(alg.k * alg.n)

        def eval_chain(ch, env):
            return sum(t.coeff * env[t.source] for t in ch.terms)

        env = {f"A{i}": a[i] for i in range(a.size)}
        env.update({f"B{i}": b[i] for i in range(b.size)})
        s = np.array([eval_chain(c, env) for c in prog.s_chains])
        t = np.array([eval_chain(c, env) for c in prog.t_chains])
        c_piped = prog.W_effective @ (s * t)
        c_raw = alg.W @ ((alg.U.T @ a) * (alg.V.T @ b))
        np.testing.assert_allclose(c_piped, c_raw, atol=1e-10)


class TestChainDataclasses:
    def test_chain_additions(self):
        ch = Chain("S0", [Term(1.0, "A0"), Term(-1.0, "A1"), Term(0.5, "A2")])
        assert ch.additions == 2

    def test_empty_chain_additions(self):
        assert Chain("S0", []).additions == 0

    def test_alias_requires_unit_coeff(self):
        assert Chain("S0", [Term(1.0, "A0")]).is_alias()
        assert not Chain("S0", [Term(2.0, "A0")]).is_alias()
