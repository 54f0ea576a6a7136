"""``FastAlgorithm``: a fast matrix-multiplication algorithm as ``[[U,V,W]]``.

A fast algorithm for base case ``<m,k,n>`` is a triple of factor matrices

    U : (m*k, R)   -- linear combinations of A's blocks forming S_r
    V : (k*n, R)   -- linear combinations of B's blocks forming T_r
    W : (m*n, R)   -- linear combinations of the products M_r forming C

with ``[[U,V,W]] == T_{<m,k,n>}`` (exact algorithms) or approximately so
(APA algorithms, paper Section 2.2.3).  The rank ``R`` (number of columns)
is the number of recursive multiplications.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from repro.core import tensor as tz

#: residual below which a decomposition is treated as numerically exact
EXACT_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class FastAlgorithm:
    """Immutable description of one fast algorithm.

    Attributes
    ----------
    m, k, n : base-case dimensions ``<m,k,n>`` (A is m x k, B is k x n).
    U, V, W : factor matrices, shapes ``(m*k, R)``, ``(k*n, R)``, ``(m*n, R)``.
    name    : registry name, e.g. ``"strassen"``.
    apa     : True for arbitrary-precision-approximate algorithms; their
              tensor residual is nonzero by design and ``check_exact``
              reports rather than enforces it.
    """

    m: int
    k: int
    n: int
    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    name: str = "unnamed"
    apa: bool = False

    def __post_init__(self):
        U = np.ascontiguousarray(np.asarray(self.U, dtype=np.float64))
        V = np.ascontiguousarray(np.asarray(self.V, dtype=np.float64))
        W = np.ascontiguousarray(np.asarray(self.W, dtype=np.float64))
        if U.shape[0] != self.m * self.k:
            raise ValueError(f"U has {U.shape[0]} rows, expected m*k={self.m * self.k}")
        if V.shape[0] != self.k * self.n:
            raise ValueError(f"V has {V.shape[0]} rows, expected k*n={self.k * self.n}")
        if W.shape[0] != self.m * self.n:
            raise ValueError(f"W has {W.shape[0]} rows, expected m*n={self.m * self.n}")
        if not (U.shape[1] == V.shape[1] == W.shape[1]):
            raise ValueError(
                f"rank mismatch: U,V,W have {U.shape[1]},{V.shape[1]},{W.shape[1]} columns"
            )
        # freeze the arrays so the dataclass is genuinely immutable
        for arr in (U, V, W):
            arr.setflags(write=False)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)

    # ------------------------------------------------------------------ info
    @property
    def rank(self) -> int:
        """Number of multiplications R (columns of the factors)."""
        return int(self.U.shape[1])

    @property
    def base_case(self) -> tuple[int, int, int]:
        return (self.m, self.k, self.n)

    @property
    def classical_rank(self) -> int:
        """Multiplications the classical algorithm uses on this base case."""
        return self.m * self.k * self.n

    @property
    def multiplication_speedup_per_step(self) -> float:
        """Expected speedup per recursive step if additions were free
        (Table 2 column): ``mkn / R - 1``."""
        return self.classical_rank / self.rank - 1.0

    @property
    def exponent(self) -> float:
        """Asymptotic exponent for square multiplication by uniform recursion:
        ``omega = 3 * log_{mkn}(R)`` (equals log2 7 for Strassen)."""
        return 3.0 * math.log(self.rank) / math.log(self.classical_rank)

    def nnz(self) -> tuple[int, int, int]:
        """Nonzero counts ``(nnz(U), nnz(V), nnz(W))`` -- the secondary
        quality metric of Section 2.3 (drives communication cost)."""
        return (
            int(np.count_nonzero(self.U)),
            int(np.count_nonzero(self.V)),
            int(np.count_nonzero(self.W)),
        )

    def memo(self, key: str, compute):
        """``compute(self)``, evaluated once per instance and kept on it.

        For what hot paths derive from the factors over and over (chain
        counts, the C backend's slab layout, cache keys): the instance is
        immutable, but its factor arrays make it unhashable, so ``functools``
        caches cannot key on it.  The result is shared -- read it only.
        """
        try:
            return self.__dict__[key]
        except KeyError:
            # straight into __dict__: the dataclass is frozen
            return self.__dict__.setdefault(key, compute(self))

    # ------------------------------------------------------------ validation
    def residual(self) -> float:
        """``||T_{<m,k,n>} - [[U,V,W]]||_F``."""
        return tz.residual(tz.matmul_tensor(self.m, self.k, self.n), self.U, self.V, self.W)

    def check_exact(self, tol: float = EXACT_TOL) -> bool:
        """True iff the decomposition reproduces the matmul tensor to ``tol``."""
        return self.residual() <= tol

    def validate(self, tol: float = EXACT_TOL) -> None:
        """Raise if a non-APA algorithm fails exactness."""
        if not self.apa and not self.check_exact(tol):
            raise ValueError(
                f"algorithm {self.name!r} for <{self.m},{self.k},{self.n}> "
                f"has residual {self.residual():.3e} > {tol:.1e}"
            )

    # ----------------------------------------------------------- derivations
    def transposed_family(self):
        """All six base-case permutations; see ``repro.core.transforms``."""
        from repro.core.transforms import permutation_family

        return permutation_family(self)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base_case": [self.m, self.k, self.n],
            "rank": self.rank,
            "apa": self.apa,
            "residual": self.residual(),
            "U": self.U.tolist(),
            "V": self.V.tolist(),
            "W": self.W.tolist(),
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def from_dict(cls, d: dict) -> "FastAlgorithm":
        m, k, n = d["base_case"]
        return cls(
            m=m, k=k, n=n,
            U=np.array(d["U"]), V=np.array(d["V"]), W=np.array(d["W"]),
            name=d.get("name", "unnamed"), apa=bool(d.get("apa", False)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "FastAlgorithm":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "APA" if self.apa else "exact"
        return (
            f"FastAlgorithm({self.name!r}, <{self.m},{self.k},{self.n}>, "
            f"rank={self.rank}, {kind})"
        )
