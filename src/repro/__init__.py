"""repro: a practical parallel fast matrix multiplication framework.

Python reproduction of Benson & Ballard, *A Framework for Practical
Parallel Fast Matrix Multiplication* (PPoPP 2015).  The package provides

- a catalog of fast algorithms as low-rank tensor decompositions
  (``repro.algorithms``), including Strassen, Strassen-Winograd,
  Hopcroft-Kerr-rank <2,2,n> algorithms and ALS-discovered algorithms at
  the paper's ranks (<2,3,3>:15, <2,3,4>:20, <2,4,4>:26, <3,3,3>:23, ...);
- the numerical search used to find them (``repro.search``);
- a code generator turning each algorithm into the addition-chain tables,
  with optional CSE, that one compiled C library runs (``repro.codegen``);
- shared-memory parallel schemes DFS / BFS / HYBRID (``repro.parallel``);
- a benchmark harness regenerating every figure and table of the paper's
  evaluation (``repro.bench`` + the repository's ``benchmarks/``).

Quick start::

    import numpy as np, repro
    A = np.random.rand(1000, 1000)
    B = np.random.rand(1000, 1000)
    C = repro.multiply(A, B, algorithm="strassen", steps=2)
    np.allclose(C, A @ B)
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import by_base_case, classical, get_algorithm, strassen, table2, winograd
from repro.bench.metrics import effective_gflops
from repro.codegen import compile_algorithm
from repro.core import EXACT_TOL, FastAlgorithm, matmul_tensor
from repro.core.recursion import CutoffPolicy, multiply_schedule
from repro.core.recursion import multiply as multiply_reference
from repro.parallel import WorkerPool, available_cores, multiply_parallel

__version__ = "1.0.0"

__all__ = [
    "FastAlgorithm",
    "EXACT_TOL",
    "matmul_tensor",
    "get_algorithm",
    "by_base_case",
    "table2",
    "strassen",
    "winograd",
    "classical",
    "multiply",
    "matmul",
    "matmul_batched",
    "multiply_reference",
    "multiply_parallel",
    "multiply_schedule",
    "CutoffPolicy",
    "compile_algorithm",
    "WorkerPool",
    "available_cores",
    "effective_gflops",
    "__version__",
]


def multiply(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: str | FastAlgorithm = "strassen",
    steps: int = 1,
    cse: bool = False,
    parallel: bool = False,
    scheme: str = "hybrid",
    threads: int | None = None,
) -> np.ndarray:
    """Multiply ``A @ B`` with a fast algorithm (the one-call public API).

    Parameters mirror the paper's tuning space: the algorithm (by registry
    name or as a ``FastAlgorithm``), the recursion depth ``steps``,
    optional ``cse``, and -- when ``parallel`` -- the scheduling
    ``scheme`` (``dfs`` / ``bfs`` / ``hybrid``) and thread count.  The
    sequential product is :func:`compile_algorithm`'s, the one a
    sequential plan of :func:`matmul` runs.
    """
    alg = get_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    if parallel:
        return multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                                 threads=threads)
    return compile_algorithm(alg, cse=cse)(A, B, steps=steps)


def matmul(A: np.ndarray, B: np.ndarray, **kwargs) -> np.ndarray:
    """Multiply ``A @ B`` with the algorithm chosen *for you*.

    The self-optimizing entry point (``repro.tuner``): consults the
    persistent plan cache for this shape/dtype/thread-count (entries tuned
    on another machine are fingerprint-stale and bypassed), falls back to
    the analytical cost model, and measures per the ``tune`` policy --
    ``"auto"`` times the candidate shortlist once when a shape resolves
    to the cost model and remembers the winner.  With ``out=C`` a
    repeat call for a cached shape is allocation-free: plan, workspace
    arena (:mod:`repro.core.workspace`), worker pool and destination are
    all reused.  See :func:`repro.tuner.matmul` and
    :mod:`repro.tuner.policy` for the full parameter list.
    """
    from repro import tuner

    return tuner.matmul(A, B, **kwargs)


def matmul_batched(
    A: np.ndarray | list[np.ndarray],
    B: np.ndarray | list[np.ndarray],
    **kwargs,
) -> np.ndarray | list[np.ndarray]:
    """Multiply a whole batch of same-shape products, ``(b, p, q) @
    (b, q, r)`` stacked arrays or lists of 2-D arrays, with one amortized
    decision: every element runs the plan :func:`matmul` would serve one
    of them, resolved once, in one workspace arena with one persistent
    worker pool, so a warm batched call with ``out=`` is allocation-free
    end to end.  ``tune`` and ``guard`` mean what they mean for
    :func:`matmul`.  See :func:`repro.tuner.matmul_batched`.
    """
    from repro import tuner

    return tuner.matmul_batched(A, B, **kwargs)


def __getattr__(name: str):
    """Lazy subpackage access (PEP 562): ``repro.linalg`` pulls in SciPy
    and ``repro.search``/``repro.tuner``/``repro.cli``/``repro.obs`` are
    niche, so none of them should tax ``import repro``."""
    if name in ("linalg", "search", "cli", "tuner", "obs"):
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
