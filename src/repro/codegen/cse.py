"""Greedy length-2 common-subexpression elimination (paper Section 3.3).

``T11 = B24 - B12 - B22`` and ``T25 = B23 + B12 + B22`` share the
subexpression ``B12 + B22`` up to scalar multiple; extracting
``Y = B12 + B22`` saves one addition per occurrence at the cost of one
addition to form Y.  We canonicalize every unordered pair of sources in a
chain by the ratio of their coefficients, count occurrences across all
chains, and repeatedly extract the most frequent pair (ties broken
deterministically), exactly the greedy scheme behind the paper's Table 3.

Eliminating a subexpression used k times saves k-1 additions but, under
write-once lowering, only *reduces memory traffic* when k >= 4
(Section 3.3's read/write counting) -- which is why the benchmarks can show
CSE hurting the write-once variant while shrinking the flop count.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from repro.codegen.chains import Chain, Term

_RATIO_DECIMALS = 12


@dataclasses.dataclass
class CseResult:
    chains: list[Chain]  # rewritten chains (same order/targets as input)
    definitions: list[Chain]  # Y-temporary definitions, in creation order
    subexpressions_eliminated: int
    additions_saved: int
    original_additions: int

    @property
    def final_additions(self) -> int:
        return self.original_additions - self.additions_saved


def _pair_key(t1: Term, t2: Term) -> tuple:
    """Canonical key for a pair, invariant under overall scaling.

    The pair ``c1*s1 + c2*s2`` (sources ordered) is characterized by the
    ratio ``c2/c1``; any chain containing ``d*s1 + d*(c2/c1)*s2`` matches.
    """
    if t1.source > t2.source:
        t1, t2 = t2, t1
    return (t1.source, t2.source, round(t2.coeff / t1.coeff, _RATIO_DECIMALS))


def _count_pairs(chains: list[Chain]) -> dict[tuple, int]:
    counts: dict[tuple, int] = defaultdict(int)
    for ch in chains:
        ts = ch.terms
        for a in range(len(ts)):
            for b in range(a + 1, len(ts)):
                counts[_pair_key(ts[a], ts[b])] += 1
    return counts


def eliminate(chains: list[Chain], min_occurrences: int = 2,
              temp_prefix: str = "Y") -> CseResult:
    """Run greedy CSE over ``chains`` until no pair repeats.

    Returns rewritten chains plus the temporary definitions; temporaries can
    themselves participate in later eliminations (nested reuse).
    """
    work = [Chain(c.target, list(c.terms)) for c in chains]
    definitions: list[Chain] = []
    original = sum(c.additions for c in work)
    eliminated = 0
    saved = 0

    while True:
        counts = _count_pairs(work)
        best_key, best_count = None, min_occurrences - 1
        for key in sorted(counts):  # deterministic tie-break
            if counts[key] > best_count:
                best_key, best_count = key, counts[key]
        if best_key is None:
            break

        s1, s2, key_ratio = best_key
        temp = f"{temp_prefix}{len(definitions)}"
        # the key groups ratios rounded to _RATIO_DECIMALS; Y takes the
        # first occurrence's exact ratio, so a chain whose ratio is that
        # one keeps its coefficients to the last bit
        ratio = None
        eliminated += 1
        saved += best_count - 1  # each use saves one add, forming Y costs one

        for ch in work:
            idx = {t.source: i for i, t in enumerate(ch.terms)}
            if s1 in idx and s2 in idx:
                t1, t2 = ch.terms[idx[s1]], ch.terms[idx[s2]]
                if round(t2.coeff / t1.coeff, _RATIO_DECIMALS) == key_ratio:
                    if ratio is None:
                        ratio = t2.coeff / t1.coeff
                    keep = [t for t in ch.terms if t.source not in (s1, s2)]
                    keep.append(Term(t1.coeff, temp))
                    ch.terms = keep
        definitions.append(Chain(temp, [Term(1.0, s1), Term(ratio, s2)]))

    return CseResult(
        chains=work,
        definitions=definitions,
        subexpressions_eliminated=eliminated,
        additions_saved=saved,
        original_additions=original,
    )


def table3_row(s_chains: list[Chain], t_chains: list[Chain]) -> dict:
    """Reproduce one row of the paper's Table 3 for the S/T formation of an
    algorithm: original additions, post-CSE additions, subexpressions
    eliminated, additions saved."""
    res = eliminate(s_chains + t_chains)
    return {
        "original": res.original_additions,
        "cse": res.final_additions,
        "subexpressions_eliminated": res.subexpressions_eliminated,
        "additions_saved": res.additions_saved,
    }
