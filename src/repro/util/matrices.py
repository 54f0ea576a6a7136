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


#: bytes of the one scratch buffer the NumPy inner-strip update works in:
#: small enough to stay in L2 beside the rows of ``C`` it is added to, and
#: the only thing dynamic peeling ever asks an arena for
STRIP_SCRATCH_BYTES = 256 * 1024


def strip_scratch_bytes(p: int, q: int, r: int,
                        base: tuple[int, int, int], itemsize: int) -> int:
    """Scratch :func:`peel_fixup` wants to add the inner strip of a
    ``p x q x r`` product under ``base`` without allocating: nothing when
    the inner dimension divides, else the core of ``C`` capped at
    :data:`STRIP_SCRATCH_BYTES`.  The executors take exactly this from
    their arena and the footprints charge exactly this."""
    m, k, n = base
    if q % k == 0:
        return 0
    return min(STRIP_SCRATCH_BYTES, (p - p % m) * (r - r % n) * itemsize)


def strip_scratch(ws, p: int, q: int, r: int,
                  base: tuple[int, int, int], itemsize: int):
    """That scratch, taken from the arena ``ws``: ``None`` without an arena
    or where the inner dimension divides.  No mark of its own -- the take
    follows the level's release, so the enclosing level's mark (or the
    next call's reset) takes it back."""
    nbytes = strip_scratch_bytes(p, q, r, base, itemsize)
    return ws.take_scratch(nbytes) if ws is not None and nbytes else None


def peel_fixup(C: np.ndarray, A: np.ndarray, B: np.ndarray,
               base: tuple[int, int, int], gemm,
               scratch: np.ndarray | None = None, strip: bool = True) -> None:
    """The boundary contributions of dynamic peeling (paper Section 3.5).

    ``C[:pc, :rc]`` already holds the fast product of the cores ``A[:pc,
    :qc] @ B[:qc, :rc]`` (the largest leading submatrices divisible by
    ``base`` = ``(m, k, n)``).  The interpreter and the parallel
    schedules call this one body for the rest:

    - the right and bottom strips of ``C`` are two classical products over
      the *whole* inner dimension, ``C[:pc, rc:] = A[:pc] @ B[:, rc:]`` and
      ``C[pc:] = A[pc:] @ B``, through ``gemm(X, Y, out=)`` straight into
      ``C`` -- thin, and no temporaries;
    - the inner strip ``A[:pc, qc:] @ B[qc:, :rc]`` is a rank-``dq`` update
      of the core (``dq < k``), far too thin for a gemm call to pay: it is
      accumulated in place, ``C_rows += a[:, t] * b[t, :]`` for ``t = 0 ..
      dq-1`` over row chunks that fit ``scratch`` (a byte buffer of
      :func:`strip_scratch_bytes`, from the caller's arena; allocated here
      when ``None``).  The compiled kernels add the same terms in the same
      order inside ``form_C`` -- while the row they just stored is still in
      L1 -- so their callers pass ``strip=False``, and both agree bit for
      bit.

    No buffer here grows with the core.
    """
    m, k, n = base
    p, q = A.shape
    r = B.shape[1]
    pc, qc, rc = p - p % m, q - q % k, r - r % n
    if strip and qc < q:
        if scratch is None:
            scratch = np.empty(
                strip_scratch_bytes(p, q, r, base, C.dtype.itemsize), np.uint8)
        Ccore, A12, B21 = C[:pc, :rc], A[:pc, qc:], B[qc:, :rc]
        cap = min(scratch.nbytes, STRIP_SCRATCH_BYTES) // C.dtype.itemsize
        cols = min(rc, cap)
        rows = max(1, cap // cols)
        for j0 in range(0, rc, cols):
            for i0 in range(0, pc, rows):
                Cv = Ccore[i0:i0 + rows, j0:j0 + cols]
                t = scratch[:Cv.nbytes].view(C.dtype).reshape(Cv.shape)
                for a, b in zip(A12[i0:i0 + rows].T, B21[:, j0:j0 + cols]):
                    np.multiply(a[:, None], b, out=t)
                    np.add(Cv, t, out=Cv)
    if rc < r:  # right strip of C
        gemm(A[:pc], B[:, rc:], out=C[:pc, rc:])
    if pc < p:  # bottom strip of C, corner included
        gemm(A[pc:], B, out=C[pc:])


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
