"""Numerical stability analysis of fast algorithms (paper Section 6).

The paper leaves stability as the framework's open empirical question:
"While theoretical bounds can be derived from each algorithm's [[U,V,W]]
representation, it is an open question which algorithmic properties are
most influential in practice; our framework will allow for rapid empirical
testing."  This module supplies both halves:

- **theory**: the Bini-Lotti / Higham-style growth bound.  A recursive
  bilinear algorithm satisfies ``|C - C_computed| <= c(n) eps |A||B| + O(eps^2)``
  where the prefactor grows with the *stability factors*

      e_max = max_r ( ||u_r||_1 ||v_r||_1 ||w_r||_1-ish combinations )

  We expose the standard quantities: per-algorithm alpha/beta/gamma
  (max column 1-norms of U, V and row 1-norms of W), the one-level growth
  factor, and its L-level compounding.

- **practice**: a measurement harness that multiplies calibrated random
  inputs at several recursion depths and reports observed error growth,
  letting Table-2 algorithms (and APA entries) be ranked empirically.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.algorithm import FastAlgorithm
from repro.util.matrices import random_matrix


@dataclasses.dataclass(frozen=True)
class StabilityFactors:
    """Norm-based quantities controlling the rounding-error growth."""

    alpha: float  # max_r ||u_r||_1
    beta: float   # max_r ||v_r||_1
    gamma: float  # max_i ||w_{i,:}||_1 (output combination mass)
    emax: float   # one-level amplification alpha * beta * gamma

    def growth(self, levels: int) -> float:
        """Crude L-level compounding of the one-level amplification."""
        return self.emax ** levels


def stability_factors(alg: FastAlgorithm) -> StabilityFactors:
    """Compute the norm-based stability factors of an algorithm.

    The classical algorithm has alpha = beta = 1 and gamma = K (each output
    sums K products), giving the baseline growth; Strassen's factors are
    modestly larger -- the well-known "Strassen is slightly less stable but
    fine in practice" quantification."""
    alpha = float(np.abs(alg.U).sum(axis=0).max())
    beta = float(np.abs(alg.V).sum(axis=0).max())
    gamma = float(np.abs(alg.W).sum(axis=1).max())
    return StabilityFactors(alpha, beta, gamma, alpha * beta * gamma)


@dataclasses.dataclass
class ErrorMeasurement:
    """Observed relative errors by recursion depth for one algorithm."""

    algorithm: str
    steps: list[int]
    rel_errors: list[float]

    @property
    def growth_per_step(self) -> float:
        """Geometric-mean error amplification per added recursion level."""
        errs = [max(e, 1e-18) for e in self.rel_errors]
        if len(errs) < 2:
            return 1.0
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
        return float(np.exp(np.mean(np.log(ratios))))


def measure_error_growth(
    alg: FastAlgorithm,
    n: int = 256,
    steps: tuple[int, ...] = (0, 1, 2, 3),
    seed: int = 0,
    dtype=np.float64,
) -> ErrorMeasurement:
    """Empirical forward error of ``alg`` at several recursion depths.

    The reference is the float64 classical product of the same inputs, so
    for ``dtype=float32`` the measurement shows the single-precision floor
    the paper contrasts with APA accuracy.
    """
    from repro.core.recursion import multiply

    A = random_matrix(n, n, seed).astype(dtype)
    B = random_matrix(n, n, seed + 1).astype(dtype)
    ref = A.astype(np.float64) @ B.astype(np.float64)
    norm = float(np.linalg.norm(ref))
    errs = []
    for s in steps:
        C = multiply(A, B, alg, steps=s)
        errs.append(float(np.linalg.norm(C.astype(np.float64) - ref)) / norm)
    return ErrorMeasurement(alg.name, list(steps), errs)


#: default growth-factor ceilings per dtype for tuner candidate pruning.
#: float32 has ~2^-24 unit roundoff; allowing a 2^12 amplification keeps
#: roughly half the mantissa, the paper's "single precision is fine for
#: fast algorithms at moderate depth" regime.  float64 is lenient (2^20
#: over 2^-53 still leaves >9 significant digits).
GROWTH_BOUNDS = {"float32": 2.0 ** 12, "float64": 2.0 ** 20}


def growth_bound(dtype: str = "float64") -> float:
    """Max tolerated L-level amplification ``emax**L`` for ``dtype``."""
    return GROWTH_BOUNDS.get(str(dtype), GROWTH_BOUNDS["float64"])


def max_stable_steps(alg: FastAlgorithm, dtype: str = "float64",
                     max_growth: float | None = None) -> int:
    """Deepest recursion whose compounded growth stays within the bound.

    The largest ``L`` with ``stability_factors(alg).growth(L) <=
    max_growth`` (default: :func:`growth_bound` for ``dtype``).  The
    tuner's float32 candidate space uses this so lower precision buys
    *bounded* extra depth, never unbounded error amplification.
    """
    if max_growth is None:
        max_growth = growth_bound(dtype)
    emax = stability_factors(alg).emax
    if emax <= 1.0:
        return 1 << 30  # classical-like: no compounding to bound
    return max(0, int(math.floor(math.log(max_growth) / math.log(emax))))


def error_bound(alg: FastAlgorithm, steps: int, q: int, dtype: str) -> float:
    """A-priori relative forward-error bound for ``steps`` levels.

    The Bini-Lotti / Higham-style shape ``growth * q * eps``: the
    classical inner-product term ``q * eps`` amplified by the compounded
    per-level factor.  Deliberately loose (norm-wise, worst-case constant
    dropped) -- it is the *ordering* and the dtype scaling that matter for
    tuner pruning and for the property-test assertion.

    An entry whose coefficients are floats -- an ALS solution, or an APA
    entry, whose residual is the approximation itself -- is also off by
    its own residual at every level, which no rounding term covers:
    ``steps * residual`` is added.  The guard checks APA products against
    this bound.
    """
    eps = float(np.finfo(np.dtype(dtype)).eps)
    bound = stability_factors(alg).growth(steps) * max(q, 1) * eps
    return bound + steps * alg.memo("_residual", FastAlgorithm.residual)


def diagonal_rescale_for_stability(alg: FastAlgorithm) -> FastAlgorithm:
    """Equilibrate the rank-one terms (a Prop.-2.3 diagonal scaling).

    Balancing ``||u_r|| ~ ||v_r|| ~ ||w_r||`` per term minimizes the
    product-of-norms bound over the scaling orbit and often improves the
    observed error of ALS-found algorithms whose factors came out skewed.
    Exactness is untouched.
    """
    U = np.array(alg.U)
    V = np.array(alg.V)
    W = np.array(alg.W)
    for r in range(alg.rank):
        nu = np.linalg.norm(U[:, r], 1)
        nv = np.linalg.norm(V[:, r], 1)
        nw = np.linalg.norm(W[:, r], 1)
        if min(nu, nv, nw) <= 0:
            continue
        s = (nu * nv * nw) ** (1.0 / 3.0)
        U[:, r] *= s / nu
        V[:, r] *= s / nv
        W[:, r] *= s / nw
    return FastAlgorithm(alg.m, alg.k, alg.n, U, V, W,
                         name=f"{alg.name}+equil", apa=alg.apa)


def rank_by_stability(algorithms: dict[str, FastAlgorithm]) -> list[tuple[str, float]]:
    """Sort algorithms by their theoretical one-level growth factor."""
    scored = [(name, stability_factors(a).emax) for name, a in algorithms.items()]
    return sorted(scored, key=lambda t: t[1])
