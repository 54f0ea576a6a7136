"""Dense linear algebra on top of fast matrix multiplication (paper §6).

The paper closes by proposing to "incorporate these fast algorithms into
frameworks like BLIS and PLASMA to see how they affect a broader class of
algorithms in numerical linear algebra".  This subpackage delivers that
extension for the blocked dense-factorization core of LAPACK:

- :class:`~repro.linalg.kernels.MatmulKernel` — one object capturing the
  paper's whole tuning space (algorithm, recursion depth, parallel
  scheme) behind a gemm-shaped interface, so every
  routine below is generic over classical vs fast multiplication;
- :func:`~repro.linalg.trsm.solve_triangular` — recursive blocked
  triangular solve whose off-diagonal updates are fast multiplies;
- :func:`~repro.linalg.lu.lu_factor` / :func:`~repro.linalg.lu.lu_solve`
  — blocked right-looking LU with partial pivoting (GETRF), trailing
  update through the kernel;
- :func:`~repro.linalg.cholesky.cholesky` — blocked lower Cholesky
  (POTRF) with a SYRK-shaped trailing update;
- :func:`~repro.linalg.inverse.invert_triangular` /
  :func:`~repro.linalg.inverse.inv` /
  :func:`~repro.linalg.inverse.newton_schulz` — inversion built from the
  pieces above, plus the multiplication-rich Newton–Schulz iteration;
- :func:`~repro.linalg.power.matrix_power` /
  :func:`~repro.linalg.power.count_walks` — repeated squaring; walk
  counting on graph adjacency matrices as an end-to-end integer-exactness
  check of fast multiplication.

In every routine the O(n³) work is concentrated in gemm-shaped updates,
which is exactly why swapping a fast algorithm into the kernel transfers
the paper's speedups to the full factorization: an LU spends ~2/3 of its
flops in the trailing update for typical block sizes, a two-sided
recursion (TRSM, triangular inverse) essentially all of them.
``benchmarks/bench_linalg.py`` measures that transfer.
"""

from repro.linalg.cholesky import cholesky
from repro.linalg.inverse import inv, invert_triangular, newton_schulz
from repro.linalg.kernels import MatmulKernel
from repro.linalg.lu import lu_factor, lu_reconstruct, lu_solve
from repro.linalg.power import count_walks, matrix_power
from repro.linalg.trsm import solve_triangular

__all__ = [
    "MatmulKernel",
    "solve_triangular",
    "lu_factor",
    "lu_solve",
    "lu_reconstruct",
    "cholesky",
    "invert_triangular",
    "inv",
    "newton_schulz",
    "matrix_power",
    "count_walks",
]
