"""Runtime control of the vendor BLAS thread count, and its cblas entry
points.

The paper's DFS and HYBRID schemes adjust MKL's thread count per call
(``mkl_set_num_threads``).  Our vendor library is the OpenBLAS bundled with
numpy; we bind its thread-control entry points via ctypes.  When the
symbols cannot be found (exotic numpy builds) the controls degrade to
no-ops and ``is_controllable()`` reports False so benchmarks can fall back
to the tiled-gemm substrate in ``repro.parallel.gemm``.

The same probe finds the ILP64 cblas ``gemm``/``gemv``/``dot`` numpy's
``matmul`` issues: :func:`matmul_kernels` hands their addresses to the
compiled step (:mod:`repro.codegen.cbackend`), which calls them from C --
no link-time dependency.  ``None`` there sends the step back to its
Python driver.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import threading

_SYMBOL_CANDIDATES = [
    # (get, set) pairs, most specific first
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
]

#: the cblas symbols of one element type, ``{}`` filled with ``d``/``s`` +
#: ``gemm``/``gemv``/``dot``; ILP64 only -- the step passes ``long``
_KERNEL_SYMBOLS = ("scipy_cblas_{}64_", "cblas_{}64_")

_lock = threading.Lock()
#: element type (``"double"``/``"float"``) -> ``void *[3]`` of its gemm,
#: gemv and dot; written once by the probe under ``_lock``, read lock-free
_kernels: dict[str, ctypes.Array] = {}
_lib = None
_lib_path = None
_get = None
_set = None
_probed = False


def _library_paths() -> list[str]:
    paths = []
    try:
        import numpy

        base = os.path.dirname(numpy.__file__)
        paths += glob.glob(os.path.join(base, "..", "numpy.libs", "libscipy_openblas*"))
        paths += glob.glob(os.path.join(base, ".libs", "libopenblas*"))
    except Exception:  # pragma: no cover - numpy always present in practice
        pass
    return paths


def _probe() -> None:
    global _lib, _lib_path, _get, _set, _probed
    if _probed:
        return
    with _lock:
        if _probed:
            return
        for path in _library_paths():
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _SYMBOL_CANDIDATES:
                getter = getattr(lib, get_name, None)
                setter = getattr(lib, set_name, None)
                if getter is not None and setter is not None:
                    getter.restype = ctypes.c_int
                    setter.argtypes = [ctypes.c_int]
                    _lib, _lib_path, _get, _set = lib, path, getter, setter
                    _bind_kernels_locked(lib)
                    _probed = True
                    return
        _probed = True


def _bind_kernels_locked(lib) -> None:
    for real, prefix in (("double", "d"), ("float", "s")):
        for pattern in _KERNEL_SYMBOLS:
            fns = [getattr(lib, pattern.format(prefix + op), None)
                   for op in ("gemm", "gemv", "dot")]
            if all(fns):
                _kernels[real] = (ctypes.c_void_p * 3)(
                    *(ctypes.cast(f, ctypes.c_void_p) for f in fns))
                break


def matmul_kernels(real: str):
    """The vendor's cblas ``gemm``, ``gemv`` and ``dot`` over C type
    ``real`` as a ``void *[3]``, or ``None`` when the probe found none."""
    _probe()
    return _kernels.get(real)


def is_controllable() -> bool:
    """True when the vendor BLAS exposes runtime thread control."""
    _probe()
    return _set is not None


def library_name() -> str | None:
    """Basename of the vendor BLAS shared library, or ``None`` if unprobed.

    The machine fingerprint (``repro.bench.machine``) uses this to detect
    a swapped BLAS (e.g. OpenBLAS -> MKL) between tuning runs.
    """
    _probe()
    return os.path.basename(_lib_path) if _lib_path else None


def get_threads() -> int:
    """Current BLAS thread count (1 when uncontrollable)."""
    _probe()
    return int(_get()) if _get is not None else 1


def set_threads(n: int) -> None:
    """Set the BLAS thread count; silently a no-op when uncontrollable."""
    if n < 1:
        raise ValueError("thread count must be >= 1")
    _probe()
    if _set is not None:
        _set(int(n))


@contextlib.contextmanager
def blas_threads(n: int | None):
    """Temporarily pin the vendor BLAS to ``n`` threads.

    This is the lever the parallel schemes use: BFS tasks run their leaf
    gemms under ``blas_threads(1)``, DFS leaves under ``blas_threads(P)``.

    The context is guarded so in-process tuning sweeps cannot leak global
    BLAS state: ``n`` is clamped to >= 1 (a zero/negative request pins to
    one thread rather than raising after the getter already ran), ``None``
    is a no-op, nesting restores the exact value saved at entry, and a
    degenerate saved value (some builds report 0 before initialization)
    restores to 1 instead of erroring inside ``finally``.
    """
    if n is None:
        yield
        return
    _probe()
    old = get_threads()
    set_threads(max(1, int(n)))
    try:
        yield
    finally:
        set_threads(old if old >= 1 else 1)


def sequential():
    """Alias for ``blas_threads(1)`` -- the paper's sequential dgemm."""
    return blas_threads(1)
