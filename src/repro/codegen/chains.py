"""Addition chains: the intermediate representation the code generator lowers.

From ``[[U,V,W]]`` we extract three groups of *chains* (paper Section 3.2):

- ``S_r = sum_i U[i,r] * A_i``   (one per rank column of U)
- ``T_r = sum_j V[j,r] * B_j``
- ``C_i = sum_r W[i,r] * M_r``   (one per output block)

Before lowering we apply *static scalar piping* (Section 3.1): when a U or
V column has a single nonzero, no temporary is formed -- the block is passed
straight into the recursive call and its scalar folded into the
corresponding W column at generation time, so it is applied once to the
(small) product instead of to the (large) operand.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.algorithm import FastAlgorithm


@dataclasses.dataclass(frozen=True)
class Term:
    """One ``coeff * source`` contribution to a chain.

    ``source`` is a symbolic operand name: ``"A0"``/``"B3"`` for input
    blocks (row-major index), ``"M5"`` for products, or ``"Y2"`` for a CSE
    temporary.
    """

    coeff: float
    source: str


@dataclasses.dataclass
class Chain:
    """``target = sum(coeff * source)``; empty chains are dropped upstream."""

    target: str
    terms: list[Term]

    @property
    def additions(self) -> int:
        """Entrywise additions to evaluate the chain (copies are free)."""
        return max(0, len(self.terms) - 1)

    def is_alias(self) -> bool:
        """True when the chain is just ``target = source`` (coeff 1)."""
        return len(self.terms) == 1 and self.terms[0].coeff == 1.0


@dataclasses.dataclass
class ChainProgram:
    """All chains of one algorithm plus the piped W matrix."""

    algorithm: FastAlgorithm
    s_chains: list[Chain]  # length R, possibly aliases
    t_chains: list[Chain]
    c_chains: list[Chain]  # length M*N
    W_effective: np.ndarray  # W with piped scalars folded in

    @property
    def total_additions(self) -> int:
        return sum(c.additions for c in
                   self.s_chains + self.t_chains + self.c_chains)

    @property
    def st_additions(self) -> int:
        """Additions in the formation of S and T (the Table-3 quantity)."""
        return sum(c.additions for c in self.s_chains + self.t_chains)


def extract_chains(alg: FastAlgorithm) -> ChainProgram:
    """Build the chain program for ``alg``.

    As in the paper's generator, single-nonzero U/V columns become pure
    aliases and their scalars are folded into ``W_effective``.
    """
    U, V, W = alg.U, alg.V, np.array(alg.W)
    R = alg.rank

    s_chains: list[Chain] = []
    t_chains: list[Chain] = []
    for r in range(R):
        for mat, prefix, out in ((U, "A", s_chains), (V, "B", t_chains)):
            col = mat[:, r]
            nz = np.nonzero(col)[0]
            terms = [Term(float(col[i]), f"{prefix}{i}") for i in nz]
            if len(terms) == 1 and terms[0].coeff != 1.0:
                W[:, r] *= terms[0].coeff
                terms = [Term(1.0, terms[0].source)]
            out.append(Chain(("S" if prefix == "A" else "T") + str(r), terms))

    c_chains: list[Chain] = []
    for i in range(W.shape[0]):
        row = W[i]
        nz = np.nonzero(row)[0]
        c_chains.append(
            Chain(f"C{i}", [Term(float(row[r]), f"M{r}") for r in nz])
        )
    return ChainProgram(alg, s_chains, t_chains, c_chains, W)
