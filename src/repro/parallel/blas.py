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
no link-time dependency.  ``None`` there means no step:
:func:`repro.codegen.cbackend.chains_fused` sends the call to the
interpreter.

It also binds the vendor's batched gemm (``cblas_{d,s}gemm_batch``, MKL's
grouped interface, as numpy's OpenBLAS 0.3.31 exports it):
:func:`gemm_batch` runs a *wave* of independent products in one call,
each product a one-thread gemm on one of the vendor's own threads -- the
paper's BFS (Section 4.2) with nothing else competing for the cores,
since OpenBLAS's workers keep spinning for 0.1-0.15 s after a threaded
call and a pool of one-thread tasks started in that window shares the
cores with them.  Each product carries exactly the bits of the
one-thread gemm of that product.  The
stacked dgemm batch (:func:`repro.tuner.dispatch.execute_plan`) and the
BFS/HYBRID leaf waves (:mod:`repro.parallel.schedules`) are its callers.
The entry segfaults on small products, so no product at or below
:data:`BATCH_MIN_VOLUME` is ever handed to it (:func:`batchable`).  It is
reentrant: concurrent callers each get their own wave onto the vendor's
threads (``tests/test_batched.py -k concurrent``).
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import threading

import numpy as np

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

#: the batched gemm of one element type, ``{}`` filled with ``d``/``s``;
#: ILP64 like the kernels above
_BATCH_SYMBOLS = ("scipy_cblas_{}gemm_batch64_", "cblas_{}gemm_batch64_")

#: OpenBLAS's batched gemm segfaults whenever one of its products has
#: ``m*n*k <= 100**3``, in both precisions -- its small-matrix cut (0.3.31,
#: SkylakeX kernels; the boundary is exact: 2000x1x500 and 99x102x99
#: crash, 2001x1x500 runs) -- so no product at or below this volume is
#: ever handed to it
BATCH_MIN_VOLUME = 100 ** 3

_CblasRowMajor, _CblasNoTrans = 101, 111

_lock = threading.Lock()
#: element type (``"double"``/``"float"``) -> ``void *[3]`` of its gemm,
#: gemv and dot; written once by the probe under ``_lock``, read lock-free
_kernels: dict[str, ctypes.Array] = {}
#: numpy element type -> its batched gemm; written once by the probe
_batch: dict[np.dtype, object] = {}
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
    for dtype, prefix in ((np.dtype(np.float64), "d"),
                          (np.dtype(np.float32), "s")):
        for pattern in _BATCH_SYMBOLS:
            fn = getattr(lib, pattern.format(prefix), None)
            if fn is not None:
                fn.restype = None
                fn.argtypes = ([ctypes.c_int] + [ctypes.c_void_p] * 13
                               + [ctypes.c_int64, ctypes.c_void_p])
                _batch[dtype] = fn
                break


def matmul_kernels(real: str):
    """The vendor's cblas ``gemm``, ``gemv`` and ``dot`` over C type
    ``real`` as a ``void *[3]``, or ``None`` when the probe found none."""
    _probe()
    return _kernels.get(real)


def batch_available(dtype=np.float64) -> bool:
    """Did the probe find the vendor's batched gemm over ``dtype``?"""
    _probe()
    return np.dtype(dtype) in _batch


def batchable(p: int, q: int, r: int) -> bool:
    """May a ``p x q x r`` product go into a vendor batched call?  It must
    be gemm-shaped -- every dimension at least 2, as ``np.matmul`` and the
    step issue a gemm only then (gemv or dot otherwise) -- and above
    :data:`BATCH_MIN_VOLUME`, where the entry does not crash."""
    return min(p, q, r) >= 2 and p * q * r > BATCH_MIN_VOLUME


def _addressable(X, dtype: np.dtype) -> bool:
    """Can the vendor take ``X``'s last two axes as a matrix of ``dtype``:
    aligned, unit column stride, rows at least a row apart?"""
    rows, cols = X.strides[-2:]
    size = dtype.itemsize
    return (X.dtype == dtype and X.flags.aligned and cols == size
            and rows >= X.shape[-1] * size and rows % size == 0)


def gemm_batch(A, B, C) -> int:
    """``C[i] = A[i] @ B[i]`` for every ``i`` in one call of the vendor's
    batched gemm, on as many threads as the BLAS is set to; each product is
    a one-thread gemm on one of them, with that gemm's bits.

    ``A``, ``B`` and ``C`` are 3-D stacks or sequences of 2-D matrices,
    one shape and one dtype (float32 or float64) per operand; the row
    strides may differ from matrix to matrix (the call groups the products
    by them).  Returns the number of products computed: ``len(A)``, or 0
    when the call is not issued and ``C`` is untouched -- no batched
    entry, another dtype, a matrix the vendor cannot address
    (:func:`_addressable`; a broadcast stack, batch stride 0, is one
    matrix, not a wave), or a product :func:`batchable` refuses.
    """
    count = len(A)
    if not count or len(B) != count or len(C) != count:
        return 0
    a, b, c = A[0], B[0], C[0]
    if not a.ndim == b.ndim == c.ndim == 2:
        return 0
    (p, q), r = a.shape, b.shape[1]
    _probe()
    fn = _batch.get(a.dtype)
    if (fn is None or b.shape[0] != q or c.shape != (p, r)
            or not batchable(p, q, r)):
        return 0
    for X in (A, B, C):
        if isinstance(X, np.ndarray):
            if not X.strides[0] or not _addressable(X, a.dtype):
                return 0
        elif not all(x.shape == X[0].shape and _addressable(x, a.dtype)
                     for x in X):
            return 0
    # per operand, every matrix's address and row stride in elements
    size = a.dtype.itemsize
    ptrs = np.empty((3, count), np.int64)
    lds = np.empty((3, count), np.int64)
    for row, X in enumerate((A, B, C)):
        if isinstance(X, np.ndarray):
            ptrs[row] = X.ctypes.data + X.strides[0] * np.arange(count)
            lds[row] = X.strides[1] // size
        else:
            ptrs[row] = [x.ctypes.data for x in X]
            lds[row] = [x.strides[0] // size for x in X]
    # one group per distinct (lda, ldb, ldc), its products side by side
    if (lds == lds[:, :1]).all():
        keys, sizes = lds[:, :1], [count]
    else:
        keys, group = np.unique(lds, axis=1, return_inverse=True)
        group = group.ravel()
        ptrs = np.ascontiguousarray(ptrs[:, np.argsort(group, kind="stable")])
        sizes = np.bincount(group)
    groups = keys.shape[1]
    # per group: m, n, k, lda, ldb, ldc, size; trans_a = trans_b = N;
    # alpha = 1, beta = 0
    dims = np.empty((7, groups), np.int64)
    dims[:3] = [[p], [r], [q]]
    dims[3:6] = keys
    dims[6] = sizes
    trans = np.full(groups, _CblasNoTrans, np.intc)
    scalars = np.zeros((2, groups), a.dtype)
    scalars[0] = 1
    d, x = dims.ctypes.data, ptrs.ctypes.data
    ab, t = scalars.ctypes.data, trans.ctypes.data
    step, ld = 8 * count, 8 * groups
    fn(_CblasRowMajor, t, t, d, d + ld, d + 2 * ld, ab, x, d + 3 * ld,
       x + step, d + 4 * ld, ab + groups * size, x + 2 * step, d + 5 * ld,
       groups, d + 6 * ld)
    return count


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
