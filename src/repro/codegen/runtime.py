"""Runtime support for generated fast-matmul modules.

Generated code is plain Python over numpy; everything it calls beyond numpy
is reachable from here: the leaf (``default_base``/``leaf``), the split
predicate and ``axpy`` accumulation -- the interpreter's own, re-exported
-- dynamic peeling, and the stacked-gemm primitives used by the *streaming*
addition strategy (stack the input's blocks once -- one read of the input --
then form every S_r/T_r in a single BLAS pass).

Every helper on the generated modules' hot path takes optional ``out=`` /
``workspace=`` arguments so arena-backed generated code (see
:mod:`repro.codegen.generator` for the protocol) runs allocation-free:
``peel_apply`` writes the product into caller storage and draws the
peel's one fixed-size strip scratch from the arena, ``axpy`` absorbs
general-coefficient scaling into a scratch view, and the streaming
primitives assemble their block stacks inside arena slabs instead of
fresh stacked copies.  Without
those arguments each helper behaves exactly as the historical allocating
path (same ufunc/gemm sequence, bit-for-bit identical results).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.recursion import _dot as default_base
from repro.core.recursion import _leaf as leaf
from repro.core.recursion import should_split
from repro.core.workspace import Workspace, axpy, check_out, scratch_view
from repro.util.matrices import peel_fixup, peel_split, strip_scratch
from repro.util.validation import require_2d

as2d = require_2d

__all__ = [
    "as2d", "axpy", "check_out", "default_base", "leaf", "peel_apply",
    "scratch_view", "should_split", "stack_blocks", "streaming_combine",
    "streaming_output", "streaming_output_stacked",
]


def peel_apply(
    A: np.ndarray,
    B: np.ndarray,
    m: int,
    k: int,
    n: int,
    core_fn: Callable,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Dynamic peeling (Section 3.5) around a divisible-core multiply.

    ``core_fn`` gets the largest ``(m,k,n)``-divisible leading submatrices;
    the boundary contributions are added by
    :func:`repro.util.matrices.peel_fixup`, whose one scratch buffer (a
    fixed-size chunk for the inner-dimension strip, never core-size) is
    drawn from ``workspace`` so non-divisible shapes stay allocation-free.

    Without ``out``/``workspace`` this is the allocating path: ``core_fn``
    is called as ``core_fn(A11, B11)`` and returns its product.  With
    either, the product is written into ``out`` (or a single fresh array
    when ``out`` is None) and ``core_fn`` is called as
    ``core_fn(A11, B11, Cview)`` -- it must write its result into the view.
    """
    A11, B11 = peel_split(A, m, k)[0], peel_split(B, k, n)[0]
    pc, rc = A11.shape[0], B11.shape[1]
    p, r = A.shape[0], B.shape[1]
    if out is None and workspace is None:
        core = core_fn(A11, B11)
        if A11.shape == A.shape and rc == r:
            return core
        C = np.empty((p, r), dtype=np.result_type(A, B))
        C[:pc, :rc] = core
    else:
        C = out if out is not None else np.empty((p, r),
                                                 dtype=np.result_type(A, B))
        core_fn(A11, B11, C[:pc, :rc])
    peel_fixup(C, A, B, (m, k, n), np.matmul,
               strip_scratch(workspace, p, A.shape[1], r, (m, k, n),
                             C.dtype.itemsize))
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


def _stack_blocks_into(stack: np.ndarray, X: np.ndarray,
                       rows: int, cols: int, bp: int, bq: int) -> None:
    """Fill ``stack``'s leading rows with ``X``'s block grid, view-to-view.

    ``X`` is usually a non-contiguous peel-core view, so the reshape dance
    of :func:`stack_blocks` would silently copy; block-wise ``copyto``
    writes the same values with no temporary.
    """
    for b in range(rows * cols):
        bi, bj = divmod(b, cols)
        np.copyto(stack[b].reshape(bp, bq),
                  X[bi * bp:(bi + 1) * bp, bj * bq:(bj + 1) * bq])


def streaming_combine(
    X: np.ndarray,
    rows: int,
    cols: int,
    defs_matrix: np.ndarray | None,
    chain_matrix: np.ndarray,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Form every S_r (or T_r) in one pass: ``chain_matrix @ [stack; defs]``.

    ``defs_matrix`` (CSE temporaries as rows over the stacked blocks) is
    evaluated first and appended as extra sources; without CSE it is None
    and ``chain_matrix`` is just U^T (or V^T) with piped scalars.
    Returns an ``(R, bp, bq)`` array whose slices are the temporaries.

    With ``workspace``, the result slab and the block stack are arena
    views: the stack is filled block-by-block (no stacked copy), the CSE
    rows are matmul'd into its tail, and the stack is released before
    returning -- only the ``(R, bp, bq)`` slab stays live.  The matmul
    operands are identical to the allocating path, so results match it
    bit for bit.
    """
    p, q = X.shape
    bp, bq = p // rows, q // cols
    if workspace is None:
        stack = stack_blocks(X, rows, cols)
        if defs_matrix is not None and defs_matrix.size:
            ys = defs_matrix.astype(stack.dtype, copy=False) @ stack
            stack = np.vstack([stack, ys])
        out = chain_matrix.astype(stack.dtype, copy=False) @ stack
        return out.reshape(-1, bp, bq)

    R = chain_matrix.shape[0]
    nbase = rows * cols
    nd = (defs_matrix.shape[0]
          if defs_matrix is not None and defs_matrix.size else 0)
    slab = workspace.take((R, bp, bq), X.dtype)
    mark = workspace.mark()
    stack = workspace.take((nbase + nd, bp * bq), X.dtype)
    _stack_blocks_into(stack, X, rows, cols, bp, bq)
    if nd:
        np.matmul(defs_matrix.astype(X.dtype, copy=False), stack[:nbase],
                  out=stack[nbase:])
    np.matmul(chain_matrix.astype(X.dtype, copy=False), stack,
              out=slab.reshape(R, bp * bq))
    workspace.release(mark)
    return slab


def streaming_output(
    products,
    defs_matrix: np.ndarray | None,
    chain_matrix: np.ndarray,
    p: int,
    r: int,
    m: int,
    n: int,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Streaming C formation: read each M_r once, write each C block once.

    ``products`` is a list of ``(bp, br)`` arrays or an ``(R, bp, br)``
    slab.  With ``out=`` the blocks are scattered into caller storage
    (block-wise, so a non-contiguous peel-core destination works without a
    hidden copy); with ``workspace`` the product stack and the combined
    block rows are arena views released before returning.
    """
    bp, br = p // m, r // n
    nprod = len(products)
    nd = (defs_matrix.shape[0]
          if defs_matrix is not None and defs_matrix.size else 0)
    dtype = products[0].dtype
    mark = workspace.mark() if workspace is not None else None
    if workspace is not None:
        stack = workspace.take((nprod + nd, bp * br), dtype)
    else:
        stack = np.empty((nprod + nd, bp * br), dtype=dtype)
    for i, Mr in enumerate(products):
        np.copyto(stack[i].reshape(bp, br), Mr)
    if nd:
        np.matmul(defs_matrix.astype(dtype, copy=False), stack[:nprod],
                  out=stack[nprod:])
    if workspace is not None:
        cc = workspace.take((m * n, bp * br), dtype)
        np.matmul(chain_matrix.astype(dtype, copy=False), stack, out=cc)
    else:
        cc = chain_matrix.astype(dtype, copy=False) @ stack  # (m*n, bp*br)
    C = out if out is not None else np.empty((p, r), dtype=dtype)
    _scatter_blocks(C, cc, m, n, bp, br)
    if workspace is not None:
        workspace.release(mark)
    return C


def streaming_output_stacked(
    stack: np.ndarray,
    nprod: int,
    defs_matrix: np.ndarray | None,
    chain_matrix: np.ndarray,
    p: int,
    r: int,
    m: int,
    n: int,
    out: np.ndarray,
    workspace: Workspace,
) -> np.ndarray:
    """:func:`streaming_output` for a *pre-stacked* product slab.

    Arena-lowered generated cores write their ``M_r`` products straight
    into the first ``nprod`` rows of ``stack`` (an arena view with
    ``len(defs)`` spare tail rows), so C formation needs no second copy of
    the product slab: the CSE definition rows are matmul'd into the tail
    in place, the combined block rows come from a transient arena buffer,
    and the blocks scatter into ``out``.  Identical matmul operands to
    :func:`streaming_output`, hence bit-identical results.
    """
    bp, br = p // m, r // n
    dtype = stack.dtype
    if defs_matrix is not None and defs_matrix.size:
        np.matmul(defs_matrix.astype(dtype, copy=False), stack[:nprod],
                  out=stack[nprod:])
    mark = workspace.mark()
    cc = workspace.take((m * n, bp * br), dtype)
    np.matmul(chain_matrix.astype(dtype, copy=False), stack, out=cc)
    _scatter_blocks(out, cc, m, n, bp, br)
    workspace.release(mark)
    return out


def _scatter_blocks(C: np.ndarray, cc: np.ndarray,
                    m: int, n: int, bp: int, br: int) -> None:
    """Write combined rows ``cc[(i, j)]`` into ``C``'s block grid, view to
    view (block-wise, so a non-contiguous peel-core destination never
    forces a hidden reshape copy)."""
    for i in range(m):
        for j in range(n):
            np.copyto(C[i * bp:(i + 1) * bp, j * br:(j + 1) * br],
                      cc[i * n + j].reshape(bp, br))
