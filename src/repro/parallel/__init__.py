"""Shared-memory parallel execution (paper Section 4).

``blas`` controls the vendor BLAS thread count and binds its cblas and
batched gemm entries; ``pool`` provides
OpenMP-task-like groups with taskwait barriers; ``gemm``/``add`` are the
compute- and bandwidth-bound substrates; ``schedules`` implements the DFS,
BFS and HYBRID fast-multiply schemes.
"""

from repro.parallel.blas import blas_threads, get_threads, is_controllable, set_threads
from repro.parallel.gemm import dgemm, tiled_gemm
from repro.parallel.pool import WorkerPool, available_cores, resolve_threads
from repro.parallel.schedules import SCHEMES, default_subgroup, multiply_parallel

__all__ = [
    "default_subgroup",
    "blas_threads",
    "get_threads",
    "is_controllable",
    "set_threads",
    "dgemm",
    "tiled_gemm",
    "WorkerPool",
    "available_cores",
    "resolve_threads",
    "SCHEMES",
    "multiply_parallel",
]
