"""Runtime support for generated fast-matmul modules.

Generated code is plain Python over numpy; everything it calls beyond numpy
is reachable from here: the leaf (``default_base``), the split predicate
and ``axpy`` accumulation -- the interpreter's own, re-exported -- dynamic
peeling, and the stacked-gemm primitives used by the *streaming* addition
strategy (stack the input's blocks once -- one read of the input -- then
form every S_r/T_r in a single BLAS pass).

Generated modules allocate their temporaries: the arena-backed sequential
executor is the interpreter (:mod:`repro.core.recursion`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.recursion import _dot as default_base
from repro.core.recursion import should_split
from repro.core.workspace import axpy, check_out
from repro.util.matrices import peel_fixup, peel_split
from repro.util.validation import require_2d

as2d = require_2d

__all__ = [
    "as2d", "axpy", "check_out", "default_base", "peel_apply",
    "should_split", "stack_blocks", "streaming_combine", "streaming_output",
]


def peel_apply(
    A: np.ndarray,
    B: np.ndarray,
    m: int,
    k: int,
    n: int,
    core_fn: Callable,
) -> np.ndarray:
    """Dynamic peeling (Section 3.5) around a divisible-core multiply.

    ``core_fn(A11, B11)`` gets the largest ``(m,k,n)``-divisible leading
    submatrices and returns their product; the boundary contributions are
    added by :func:`repro.util.matrices.peel_fixup`.
    """
    A11, B11 = peel_split(A, m, k)[0], peel_split(B, k, n)[0]
    pc, rc = A11.shape[0], B11.shape[1]
    p, r = A.shape[0], B.shape[1]
    core = core_fn(A11, B11)
    if A11.shape == A.shape and rc == r:
        return core
    C = np.empty((p, r), dtype=np.result_type(A, B))
    C[:pc, :rc] = core
    peel_fixup(C, A, B, (m, k, n), np.matmul)
    return C


# --------------------------------------------------------------------------
# streaming-strategy primitives
# --------------------------------------------------------------------------
def stack_blocks(X: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Copy ``X``'s ``rows x cols`` block grid into a ``(rows*cols, bp*bq)``
    matrix (row-major block order) -- the single read of the input that the
    streaming strategy performs."""
    p, q = X.shape
    bp, bq = p // rows, q // cols
    return (
        X.reshape(rows, bp, cols, bq)
        .transpose(0, 2, 1, 3)
        .reshape(rows * cols, bp * bq)
    )


def streaming_combine(
    X: np.ndarray,
    rows: int,
    cols: int,
    defs_matrix: np.ndarray | None,
    chain_matrix: np.ndarray,
) -> np.ndarray:
    """Form every S_r (or T_r) in one pass: ``chain_matrix @ [stack; defs]``.

    ``defs_matrix`` (CSE temporaries as rows over the stacked blocks) is
    evaluated first and appended as extra sources; without CSE it is None
    and ``chain_matrix`` is just U^T (or V^T) with piped scalars.
    Returns an ``(R, bp, bq)`` array whose slices are the temporaries.
    """
    p, q = X.shape
    bp, bq = p // rows, q // cols
    stack = stack_blocks(X, rows, cols)
    if defs_matrix is not None and defs_matrix.size:
        ys = defs_matrix.astype(stack.dtype, copy=False) @ stack
        stack = np.vstack([stack, ys])
    out = chain_matrix.astype(stack.dtype, copy=False) @ stack
    return out.reshape(-1, bp, bq)


def streaming_output(
    products,
    defs_matrix: np.ndarray | None,
    chain_matrix: np.ndarray,
    p: int,
    r: int,
    m: int,
    n: int,
) -> np.ndarray:
    """Streaming C formation: read each M_r once, write each C block once.

    ``products`` is a list of ``(bp, br)`` arrays.
    """
    bp, br = p // m, r // n
    nprod = len(products)
    nd = (defs_matrix.shape[0]
          if defs_matrix is not None and defs_matrix.size else 0)
    dtype = products[0].dtype
    stack = np.empty((nprod + nd, bp * br), dtype=dtype)
    for i, Mr in enumerate(products):
        np.copyto(stack[i].reshape(bp, br), Mr)
    if nd:
        np.matmul(defs_matrix.astype(dtype, copy=False), stack[:nprod],
                  out=stack[nprod:])
    cc = chain_matrix.astype(dtype, copy=False) @ stack  # (m*n, bp*br)
    C = np.empty((p, r), dtype=dtype)
    for i in range(m):
        for j in range(n):
            np.copyto(C[i * bp:(i + 1) * bp, j * br:(j + 1) * br],
                      cc[i * n + j].reshape(bp, br))
    return C

