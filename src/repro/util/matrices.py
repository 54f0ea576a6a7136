"""Block-matrix helpers: partitioning into views, peeling splits, test data.

The recursive fast algorithms operate on an M x K grid of equally sized
sub-blocks of A (and K x N of B, M x N of C).  All partitioning here returns
*views*, never copies, following the guide's "views, not copies" rule --
copies are only made when an addition chain actually combines blocks.
"""

from __future__ import annotations

import numpy as np


def block_views(X: np.ndarray, rows: int, cols: int) -> list[np.ndarray]:
    """Partition ``X`` into a ``rows x cols`` grid of equally sized views.

    Returns the blocks in row-major order, matching the row-wise
    vectorization convention of the paper (Section 1.2): block (i, j) sits at
    index ``i * cols + j``, exactly like the entry ordering of ``vec(X)``.

    ``X.shape`` must be divisible by ``(rows, cols)``; callers handle ragged
    dimensions with :func:`peel_split` first.
    """
    p, q = X.shape
    if p % rows or q % cols:
        raise ValueError(
            f"matrix of shape {X.shape} not divisible into {rows}x{cols} blocks"
        )
    bp, bq = p // rows, q // cols
    return [
        X[i * bp : (i + 1) * bp, j * bq : (j + 1) * bq]
        for i in range(rows)
        for j in range(cols)
    ]


def flatten_blocks(blocks: list[np.ndarray], rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`block_views`: reassemble a row-major block list."""
    if len(blocks) != rows * cols:
        raise ValueError(f"expected {rows * cols} blocks, got {len(blocks)}")
    return np.block([[blocks[i * cols + j] for j in range(cols)] for i in range(rows)])


def peel_split(X: np.ndarray, row_div: int, col_div: int):
    """Split ``X`` for dynamic peeling (paper Section 3.5).

    Returns ``(core, right, bottom, corner)`` views where ``core`` is the
    largest leading submatrix whose dimensions are divisible by
    ``(row_div, col_div)``; the other three are the boundary strips (possibly
    zero-width).  Dynamic peeling runs the fast algorithm on ``core`` and
    fixes up the boundary contributions with classical (thin) products at
    every recursion level, which keeps memory use flat compared with padding.
    """
    p, q = X.shape
    pr, qr = p % row_div, q % col_div
    pc, qc = p - pr, q - qr
    return X[:pc, :qc], X[:pc, qc:], X[pc:, :qc], X[pc:, qc:]


def peel_fixup(C: np.ndarray, parts: tuple, gemm, ws=None) -> None:
    """The boundary products of dynamic peeling (paper Section 3.5).

    ``parts`` is ``peel_split(A, m, k) + peel_split(B, k, n)`` and
    ``C[:pc, :rc]`` already holds the fast product ``A11 @ B11``; this adds
    what the peeled strips contribute, with classical products through
    ``gemm(X, Y, out=None)``.  Every executor -- interpreter, parallel
    schedules, generated modules, compiled driver -- calls this one body.

    ``A12 @ B21`` is the only core-size temporary; it is drawn from the
    arena ``ws`` when one is given (so peeled shapes stay allocation-free)
    and :func:`repro.core.workspace._peel_bytes` sizes exactly that.  The
    other strips are O(boundary)-thin and are written straight into ``C``.
    """
    A11, A12, A21, A22, B11, B12, B21, B22 = parts
    pc, rc = A11.shape[0], B11.shape[1]
    dp, dq, dr = A21.shape[0], A12.shape[1], B12.shape[1]
    if dq:  # inner-dimension strip contributes to the core block of C
        Ccore = C[:pc, :rc]
        if ws is None:
            Ccore += gemm(A12, B21)
        else:
            mark = ws.mark()
            t = ws.take((pc, rc), C.dtype)
            gemm(A12, B21, out=t)
            np.add(Ccore, t, out=Ccore)
            ws.release(mark)
    if dr:  # right strip of C
        gemm(A11, B12, out=C[:pc, rc:])
        if dq:
            C[:pc, rc:] += gemm(A12, B22)
    if dp:  # bottom strip of C
        gemm(A21, B11, out=C[pc:, :rc])
        if dq:
            C[pc:, :rc] += gemm(A22, B21)
    if dp and dr:  # corner
        C[pc:, rc:] = gemm(A21, B12) + gemm(A22, B22)


def random_matrix(
    rows: int,
    cols: int,
    rng: np.random.Generator | int | None = None,
    dtype=np.float64,
) -> np.ndarray:
    """Uniform [-1, 1) test matrix; deterministic given a seed."""
    from repro.util.rng import default_rng

    g = default_rng(rng)
    return (2.0 * g.random((rows, cols)) - 1.0).astype(dtype, copy=False)
