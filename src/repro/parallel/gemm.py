"""Parallel dgemm substrates.

Two ways to run a leaf multiplication on ``t`` threads, mirroring the
paper's use of multithreaded MKL:

- :func:`dgemm` -- the vendor path: pin OpenBLAS to ``t`` threads for the
  call (closest to ``mkl_set_num_threads`` + ``dgemm``);
- :func:`tiled_gemm` -- an explicit substrate: split C's rows into slabs
  and compute each slab's ``A_slab @ B`` on the pool (numpy releases the
  GIL inside BLAS, so slabs genuinely overlap).  Used when the vendor
  library is uncontrollable and by the machine-model benchmarks, which
  need a gemm whose parallelism we can sweep deterministically.
"""

from __future__ import annotations

import numpy as np

from repro.parallel import blas
from repro.parallel.pool import WorkerPool, _row_slabs


def dgemm(
    A: np.ndarray, B: np.ndarray, threads: int = 1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vendor gemm at an explicit thread count, into ``out`` when given."""
    with blas.blas_threads(threads):
        return np.matmul(A, B, out=out)


def tiled_gemm(
    A: np.ndarray,
    B: np.ndarray,
    pool: WorkerPool,
    threads: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Row-slab parallel gemm over a worker pool (single-threaded BLAS
    inside each slab so parallelism is exactly ``threads``)."""
    t = threads or pool.workers
    p, q = A.shape
    r = B.shape[1]
    # result dtype must follow the operands: a bare np.empty would pin C to
    # float64 and make np.dot(..., out=C) reject/upcast float32 inputs
    C = out if out is not None else np.empty((p, r), dtype=np.result_type(A, B))
    if t <= 1 or p < t:
        with blas.blas_threads(1):
            np.dot(A, B, out=C)
        return C

    def work(sl: slice) -> None:
        np.dot(A[sl], B, out=C[sl])

    with blas.blas_threads(1):
        g = pool.group()
        for sl in _row_slabs(p, t):
            g.run(work, sl)
        g.wait()
    return C
