"""Input validation and error metrics shared across the library."""

from __future__ import annotations

import numpy as np


def as_floating(A: np.ndarray) -> np.ndarray:
    """``A`` in the dtype the library computes in: float32 is preserved
    (the paper notes single precision as the honest alternative to APA
    algorithms); bool, integers and float16 are upcast to float64, which
    holds them exactly.  Anything float64 cannot hold -- complex,
    extended-precision floats, objects -- raises ``ValueError`` instead of
    being narrowed to a wrong answer."""
    if A.dtype in (np.float32, np.float64):
        return A
    if A.dtype.kind not in "biuf" or A.dtype.itemsize > 8:
        raise ValueError(
            f"cannot multiply {A.dtype} operands: the library computes in "
            f"float32 or float64, which would drop its "
            f"{'imaginary part' if A.dtype.kind == 'c' else 'precision'}")
    return A.astype(np.float64)


def require_2d(X: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce to a floating (:func:`as_floating`) 2-D ndarray, raising on
    bad input."""
    A = np.asarray(X)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={A.ndim}")
    return as_floating(A)


def check_matmul_dims(A: np.ndarray, B: np.ndarray) -> tuple[int, int, int]:
    """Return (P, Q, R) for C = A @ B, validating the inner dimension."""
    p, q = A.shape
    q2, r = B.shape
    if q != q2:
        raise ValueError(f"inner dimensions disagree: A is {A.shape}, B is {B.shape}")
    return p, q, r


def relative_error(C: np.ndarray, C_ref: np.ndarray) -> float:
    """Frobenius-norm relative error ||C - C_ref|| / ||C_ref||.

    This is the metric used throughout the tests to compare fast-algorithm
    output against the classical product; exact algorithms should sit at the
    rounding-error level (~1e-14 for well-scaled inputs) while APA algorithms
    show the O(lambda) degradation the paper warns about.
    """
    denom = float(np.linalg.norm(C_ref))
    if denom == 0.0:
        return float(np.linalg.norm(C))
    return float(np.linalg.norm(C - C_ref)) / denom
