"""Native (C) backend for the addition chains — the paper's actual codegen.

The paper's generator emits C++ so that each ``S_r``/``T_r``/``C_ij``
linear combination becomes one fused loop: every operand is read once and
the destination written once per pass, with no interpreter or temporary-
array overhead.  The Python strategies in :mod:`repro.codegen.strategies`
approximate that with NumPy ufuncs (one in-place pass *per operand pair*
for ``write_once``).  This module closes the gap: it emits real C for the
chains of one algorithm, compiles it with the system C compiler, and
drives it through ``ctypes`` — producing the genuine single-pass kernels
the paper measures, while recursion, dynamic peeling and the leaf dgemm
stay in Python/BLAS exactly as before.

Generated interface per algorithm (one shared object each)::

    void form_S(const double *A, long lda, long bp, long bq, double *S,
                long i0, long i1);
    void form_T(const double *B, long ldb, long bp, long bq, double *T,
                long i0, long i1);
    void form_C(const double **M, long bp, long bq,
                double *C, long ldc, double *Y,
                const double *A12, long lda, const double *B21, long ldb,
                long dq, long i0, long i1);

``form_S``/``form_T`` read the m·k (k·n) sub-blocks of the parent operand
in place (row stride ``lda``, in elements) and write CSE definitions plus
all non-alias chains into a contiguous slab; alias chains (single-nonzero
columns after scalar piping) are zero-traffic views handled on the Python
side, mirroring the paper's "no temporary is formed" rule.  ``form_C``
assembles the output blocks from an array of product-row pointers in one
fused pass per block; ``Y`` is caller-provided scratch for C-side CSE
definitions (NULL when there are none).  Where dynamic peeling (Section
3.5) stripped ``dq`` columns off the inner dimension, ``form_C`` also adds
their contribution -- ``C[i, :] += A12[i, t] * B21[t, :]``, ``t = 0 ..
dq-1`` -- to each block row right after storing it, while the row is in
L1: the strip gets no pass over ``C`` of its own and no buffer
(``dq = 0``: nothing peeled, the pointers may be NULL).  Every kernel
works on the rows ``[i0, i1)`` of its blocks and touches no other row (the
``cemit`` analyzer proves it from the emitted text), so one sweep can be
cut into ranges that run concurrently: the sequential driver below passes
the whole range, the parallel schedules (:mod:`repro.parallel.schedules`)
fan ranges out over their worker pool -- whenever :func:`chains_fused`
says the operands allow it.

**Every emitted ``j`` loop is marked dependence-free** (``NODEP``: ``#pragma
GCC ivdep``, clang's ``vectorize(assume_safety)``, nothing elsewhere).
With more than ten pointer pairs in a loop gcc stops versioning it for
aliasing and runs it scalar -- the dense catalog entries' ``form_C`` (26
terms a chain for ``s424``) three times slower than the memory system
allows.  The hint asserts what holds by construction, in two halves.  The
kernel's: a loop's store target and each of its sources are different
rows of the slab, of ``Y`` or of the output grid, or live in different
arguments -- proven per unit by :mod:`repro.analyze.cemit`.  The
caller's, **the no-overlap contract of these kernels**: buffers passed as
different arguments do not overlap -- the slabs, products and ``Y`` are
distinct arena takes (or fresh arrays), never the operands; ``C`` is the
caller's ``out`` (checked against ``A`` and ``B`` by
:func:`repro.core.workspace.check_out`), a fresh array, or a buffer of the
level above that none of this level's operands occupies
(:func:`product_homes` frees a chain's row only once its rank is done);
``A12``/``B21`` are views of the operands.  ``-ffp-contract=off`` keeps
the strip's multiply and add separately rounded, as NumPy rounds them,
whatever the compiler's default.

Shared objects are cached on disk under ``$REPRO_CACHE_DIR/cbackend``
(default ``~/.cache/repro/cbackend``), keyed by (source, compiler, flags,
machine fingerprint) so a ``.so`` built with a different ``REPRO_CC``, a
different flag set, or on another machine (``-march=native``!) is never
reused.  Objects are compiled to a temporary name and ``os.replace``d
into place, so a concurrent process can never ``CDLL`` a half-written
file; when the cache dir is unwritable the backend degrades to
compile-per-process in a private temp dir (mirroring ``PlanCache``'s
in-memory degradation).

Use :func:`available` to test for a working compiler,
:func:`compile_chains` for a :class:`CompiledChains`, and
:func:`multiply` for the one-call API.  Everything degrades loudly
(``RuntimeError``), never silently, when no compiler exists; the serving
paths (:func:`repro.tuner.dispatch.execute_plan` for ``backend="compiled"``
plans, :func:`repro.parallel.schedules.multiply_parallel` for its chains)
go through :func:`serving_chains`, which counts and warns instead, and
fall back to the NumPy executors so a compile failure never fails a
multiply.

The kernels are float64-only; the driver computes in double and returns
``np.result_type(A, B)`` (float32 in -> float32 out, rounded once on
exit).  Result dtypes double cannot represent by kind -- complex,
extended-precision floats -- are rejected with ``ValueError`` and belong
on the python codegen or interpreter paths.  :meth:`CompiledChains.multiply`
accepts ``out=``/``workspace=`` like the interpreter: with a
workspace sized by :func:`repro.core.workspace.cbackend_footprint` the
warm path draws every slab and product buffer from the arena and
allocates nothing from the heap (peeling needs no buffer at all).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from repro.codegen import cse as cse_mod
from repro.codegen.chains import Chain, extract_chains
from repro.core.algorithm import FastAlgorithm
from repro.core.recursion import should_split
from repro.core.stability import stability_factors
from repro.core.workspace import ALIGNMENT, cbackend_footprint, check_out
from repro.obs import telemetry
from repro.util.matrices import peel_fixup, peel_split
from repro.util.validation import check_matmul_dims

_CC = os.environ.get("REPRO_CC", "cc")
#: ``-ffp-contract=off``: a fused multiply-add rounds once where NumPy
#: rounds twice, and the bit-for-bit agreement with the NumPy executors
#: must not rest on gcc's ISO-mode default
_CFLAGS = ["-O3", "-march=native", "-std=c99", "-ffp-contract=off", "-fPIC",
           "-shared"]
_log = logging.getLogger(__name__)

#: loaded shared objects keyed by :func:`_source_key`; guarded by
#: ``_lib_lock`` (registered in the concurrency shared-state registry) --
#: concurrent first-compiles of one algorithm must converge on one handle
_lib_lock = threading.Lock()
_LIB_CACHE: dict[str, ctypes.CDLL] = {}

#: resolved on-disk cache directory: ``False`` until first resolution,
#: then a ``Path`` or ``None`` (= unwritable, compile-per-process);
#: ``warned`` makes the degradation warning fire once per process.
#: Guarded by ``_lib_lock`` like the library cache itself.
_CACHE_STATE: dict[str, object] = {"dir": False, "warned": False}


@functools.lru_cache(maxsize=1)
def available() -> bool:
    """True when a C compiler is present and produces loadable objects."""
    try:
        # the probe must never consume an injected cbackend.compilefail
        # firing (and a transient fault must not poison this lru cache)
        _compile_source("void repro_probe(void) {}\n", fire_faults=False)
        return True
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return False


# ======================================================================
# chain preparation (shared by the emitter and the ctypes driver)
# ======================================================================
def _prepare(algorithm: FastAlgorithm, cse: bool):
    """Extract chains, apply CSE, and fix the slab layouts.

    Returns ``(s, t, c)`` where each side is a dict with ``chains``,
    ``defs`` and — for s/t — ``layout``: per rank column either
    ``("alias", block_index)`` or ``("slot", slab_row)``; definitions
    occupy the leading slab rows in their creation order, which is also
    emission order (``eliminate`` only creates a definition before its
    first use, so dependencies always point backwards).

    Kept on the algorithm (:meth:`FastAlgorithm.memo`): the arena
    footprint asks on every parallel call.
    """
    return algorithm.memo(f"_cbackend_prepared_{int(cse)}",
                          functools.partial(_extract, cse=cse))


def _extract(algorithm: FastAlgorithm, cse: bool):
    prog = extract_chains(algorithm, pipe_scalars=True)
    sides = {}
    for key, chains, prefix in (
        ("s", prog.s_chains, "YA"),
        ("t", prog.t_chains, "YB"),
        ("c", prog.c_chains, "YM"),
    ):
        defs: list[Chain] = []
        if cse:
            res = cse_mod.eliminate(chains, temp_prefix=prefix)
            chains, defs = res.chains, res.definitions
        layout = []
        slot = len(defs)
        for ch in chains:
            # input-block aliases are zero-traffic views; a chain CSE has
            # rewritten to a bare Y reference still needs materializing
            if (ch.is_alias() and key != "c"
                    and not ch.terms[0].source.startswith("Y")):
                layout.append(("alias", int(ch.terms[0].source[1:])))
            else:
                layout.append(("slot", slot))
                slot += 1
        sides[key] = {"chains": chains, "defs": defs,
                      "layout": layout, "slots": slot}
    return sides["s"], sides["t"], sides["c"]


# ======================================================================
# C source emission
# ======================================================================
def _coeff_term(coeff: float, expr: str) -> str:
    if coeff == 1.0:
        return f"+ {expr}"
    if coeff == -1.0:
        return f"- {expr}"
    return f"+ {coeff!r} * {expr}"


def _rhs(terms) -> str:
    parts = [_coeff_term(t.coeff, f"p{t.source}[j]") for t in terms]
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else joined


def _referenced_sources(chains: list[Chain]) -> list[str]:
    seen: list[str] = []
    for ch in chains:
        for t in ch.terms:
            if t.source not in seen:
                seen.append(t.source)
    return seen


#: the vectoriser hint every emitted ``j`` loop carries (module docstring):
#: no iteration reads what another writes.  An unknown compiler gets an
#: empty macro and compiles the loops as it always did.
_NODEP_MACRO = [
    "#if defined(__clang__)",
    '#define NODEP _Pragma("clang loop vectorize(assume_safety)")',
    "#elif defined(__GNUC__)",
    '#define NODEP _Pragma("GCC ivdep")',
    "#else",
    "#define NODEP",
    "#endif",
]


def _store_loop(ch: Chain) -> list[str]:
    """One fused pass: the chain's target row from its source rows."""
    return ["    NODEP",
            "    for (long j = 0; j < bq; ++j)",
            f"      p{ch.target}[j] = {_rhs(ch.terms)};"]


def _emit_side(fn: str, side: dict, blocks_cols: int, prefix: str) -> list[str]:
    """Emit ``form_S``/``form_T``: one fused j-loop per definition/chain."""
    defs, chains, layout = side["defs"], side["chains"], side["layout"]
    body = list(defs) + [
        ch for ch, lay in zip(chains, layout) if lay[0] == "slot"
    ]
    slot_of = {ch.target: lay[1]
               for ch, lay in zip(chains, layout) if lay[0] == "slot"}
    for i, d in enumerate(defs):
        slot_of[d.target] = i

    lines = [
        f"void {fn}(const double *X, long ldx, long bp, long bq, double *S,"
        " long i0, long i1)",
        "{",
        "  const size_t blk = (size_t)bp * (size_t)bq;",
        "  for (long i = i0; i < i1; ++i) {",
    ]
    for s in _referenced_sources(body):
        if s.startswith(prefix):
            b = int(s[len(prefix):])
            br, bc = divmod(b, blocks_cols)
            lines.append(
                f"    const double *p{s} = X + ((size_t)({br}*bp + i))*ldx"
                f" + (size_t)({bc})*bq;"
            )
        # Y sources resolve to slab pointers declared below
    for ch in body:
        lines.append(
            f"    double *p{ch.target} = S + {slot_of[ch.target]}*blk"
            f" + (size_t)i*bq;"
        )
    for ch in body:
        lines += _store_loop(ch)
    lines += ["  }", "}"]
    return lines


def _emit_output(side: dict, m: int, n: int) -> list[str]:
    """Emit ``form_C``; products come in as row-pointer array ``M``.  Each
    row of each block takes the peeled inner-dimension strip right after
    it is stored: ``dq`` rank-one terms, in order, no pass of their own."""
    defs, chains = side["defs"], side["chains"]
    lines = [
        "void form_C(const double **M, long bp, long bq,"
        " double *C, long ldc, double *Y,"
        " const double *A12, long lda, const double *B21, long ldb, long dq,"
        " long i0, long i1)",
        "{",
        "  (void)Y;" if not defs else "",
        "  for (long i = i0; i < i1; ++i) {",
    ]
    for s in _referenced_sources(list(defs) + list(chains)):
        if s.startswith("M"):
            lines.append(
                f"    const double *p{s} = M[{int(s[1:])}] + (size_t)i*bq;"
            )
    for d_i, d in enumerate(defs):
        lines.append(f"    double *p{d.target} = Y + {d_i}*bq;")
    blocks = [divmod(int(ch.target[1:]), n) for ch in chains]
    for ch, (bi, bj) in zip(chains, blocks):
        lines.append(
            f"    double *p{ch.target} = C + ((size_t)({bi}*bp + i))*ldc"
            f" + (size_t)({bj})*bq;"
        )
    for d in defs:
        lines += _store_loop(d)
    for ch, (bi, bj) in zip(chains, blocks):
        lines += _store_loop(ch)
        lines += [
            "    for (long t = 0; t < dq; ++t) {",
            f"      const double a = A12[((size_t)({bi}*bp + i))*lda + t];",
            f"      const double *b = B21 + (size_t)t*ldb + (size_t)({bj})*bq;",
            "      NODEP",
            "      for (long j = 0; j < bq; ++j)",
            f"        p{ch.target}[j] += a * b[j];",
            "    }",
        ]
    lines += ["  }", "}"]
    return [ln for ln in lines if ln != ""]


def generate_c_source(algorithm: FastAlgorithm, cse: bool = False) -> str:
    """Return the complete C translation unit for ``algorithm``'s chains."""
    s, t, c = _prepare(algorithm, cse)
    m, k, n = algorithm.base_case
    lines = [
        "/* Auto-generated by repro.codegen.cbackend; do not edit.",
        f" * algorithm {algorithm.name} <{m},{k},{n}> rank {algorithm.rank},"
        f" cse={cse}",
        f" * slab rows: S={s['slots']} T={t['slots']}"
        f" (defs first: {len(s['defs'])}/{len(t['defs'])}),"
        f" C scratch rows: {len(c['defs'])}",
        " */",
        "#include <stddef.h>",
        *_NODEP_MACRO,
        "",
    ]
    lines += _emit_side("form_S", s, k, "A")
    lines.append("")
    lines += _emit_side("form_T", t, n, "B")
    lines.append("")
    lines += _emit_output(c, m, n)
    lines.append("")
    return "\n".join(lines)


# ======================================================================
# compilation and the ctypes driver
# ======================================================================
def _source_key(src: str) -> str:
    """Cache key for one translation unit: source alone is NOT enough.

    ``-march=native`` objects are machine-specific, and a ``REPRO_CC`` or
    flag change produces different code from identical source — so the
    key digests (source, compiler, flags, machine fingerprint) together.
    The fingerprint includes the CPU's ISA flags: two hosts sharing a
    model string and a ``REPRO_CACHE_DIR`` but not an AVX level must not
    share an object.
    """
    from repro.bench.machine import fingerprint_digest

    blob = "\x00".join([src, _CC, " ".join(_CFLAGS), fingerprint_digest()])
    return hashlib.sha1(blob.encode()).hexdigest()


def _cache_dir_locked() -> Path | None:
    """Resolve the on-disk ``.so`` cache dir (caller holds ``_lib_lock``).

    Per-user, never world-shared: ``$REPRO_CACHE_DIR/cbackend`` when set,
    else ``$XDG_CACHE_HOME``/``~/.cache`` + ``repro/cbackend``.  Returns
    ``None`` when the directory cannot be created or written — callers
    then compile into a private per-process temp dir, so a read-only home
    (or a hostile shared mount) costs persistence, never correctness.
    """
    cur = _CACHE_STATE["dir"]
    if cur is not False:
        return cur
    from repro.bench.machine import cache_root

    root = cache_root() / "cbackend"
    try:
        root.mkdir(parents=True, exist_ok=True)
        probe = root / f".write-probe-{os.getpid()}"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError:
        _CACHE_STATE["dir"] = None
        if not _CACHE_STATE["warned"]:
            _CACHE_STATE["warned"] = True
            warnings.warn(
                f"cbackend cache dir {root} is not writable; compiled "
                f"objects will not persist across processes",
                RuntimeWarning, stacklevel=3,
            )
        return None
    _CACHE_STATE["dir"] = root
    return root


def _build_so(src: str, key: str, cache_dir: Path) -> Path:
    """Compile ``src`` into ``cache_dir/chains-<key>.so`` atomically.

    The compiler writes a (pid, thread)-suffixed temp name which is
    ``os.replace``d into place only on success, so another process (or
    thread -- same pid!) racing ``CDLL`` on the final name can never map
    a half-written object; racing builders each own a distinct temp and
    the last replace wins with identical content.
    """
    so = cache_dir / f"chains-{key}.so"
    uniq = f"{os.getpid()}-{threading.get_ident()}"
    tmp = cache_dir / f"chains-{key}.{uniq}.tmp.so"
    cpath = cache_dir / f"chains-{key}.{uniq}.tmp.c"
    cpath.write_text(src)
    try:
        with telemetry.span("cbackend.compile"):
            proc = subprocess.run(
                [_CC, *_CFLAGS, "-o", str(tmp), str(cpath)],
                capture_output=True, text=True,
            )
        telemetry.incr("cbackend.compiles")
        if proc.returncode != 0:
            raise RuntimeError(
                f"C compilation failed ({_CC}):\n{proc.stderr[:2000]}"
            )
        os.replace(tmp, so)
        # keep the source next to the object for debugging (same-dir
        # rename: atomic, and a loser of the race just overwrites with
        # identical content)
        os.replace(cpath, cache_dir / f"chains-{key}.c")
    finally:
        for leftover in (tmp, cpath):
            try:
                leftover.unlink()
            except OSError:
                pass
    return so


def _compile_source(src: str, fire_faults: bool = True) -> ctypes.CDLL:
    key = _source_key(src)
    with _lib_lock:
        lib = _LIB_CACHE.get(key)
        if lib is not None:
            return lib
        cache_dir = _cache_dir_locked()
    if fire_faults:
        from repro.guard import faults

        if faults.active and faults.should_fire("cbackend.compilefail"):
            raise faults.InjectedFault("injected fault: cbackend.compilefail")
    if cache_dir is None:
        # degraded mode: private per-process build dir, nothing persists
        workdir = Path(tempfile.mkdtemp(prefix="repro-cbackend-"))
        so = _build_so(src, key, workdir)
    else:
        so = cache_dir / f"chains-{key}.so"
        if not so.exists():
            _build_so(src, key, cache_dir)
    with telemetry.span("cbackend.load"):
        lib = ctypes.CDLL(str(so))
    with _lib_lock:
        # a concurrent compile of the same key may have won: converge on
        # one handle so `_compile_source(src) is _compile_source(src)`
        return _LIB_CACHE.setdefault(key, lib)


def _take(ws, shape) -> np.ndarray:
    """A float64 buffer from the arena (heap when no workspace given)."""
    if ws is None:
        return np.empty(shape, dtype=np.float64)
    return ws.take(shape, np.float64)


def _packed(X: np.ndarray, ws) -> np.ndarray:
    """A contiguous float64 copy of ``X``, arena-backed when possible."""
    buf = _take(ws, X.shape)
    np.copyto(buf, X)
    return buf


def kernel_ready(X: np.ndarray) -> bool:
    """Can the kernels address ``X`` in place?  They walk a float64 matrix
    row by row (``X + i*ldx``, unit stride inside a row), so anything else
    -- another dtype, strided or reversed columns, reversed rows -- has to
    be packed first (:meth:`CompiledChains.multiply`) or served by the
    NumPy chains (the parallel schedules)."""
    return (X.dtype == np.float64 and X.ndim == 2 and X.flags.aligned
            and (X.strides[1] == 8 or X.shape[1] <= 1)
            and X.strides[0] >= 0 and X.strides[0] % 8 == 0)


def chains_fused(dtype_a, dtype_b=None, operands=()) -> bool:
    """Will the parallel schedules form S, T and C with these kernels?

    Asked by :func:`repro.parallel.schedules.multiply_parallel` before it
    runs, by :func:`repro.tuner.dispatch.plan_footprint` to size the arena
    of the path that will run, and by :func:`repro.core.cost.plan_cost` to
    price it: float64 operands the kernels can address in place
    (:func:`kernel_ready`; ``operands`` may hold ``None`` for an absent
    ``out``) on a host with a working compiler.  Everything else -- other
    dtypes, exotic strides, no toolchain -- is formed by the NumPy
    row-slab adders.  It is not a plan dimension: nothing selects it.
    """
    f64 = np.dtype(np.float64)
    return (np.dtype(dtype_a) == f64
            and (dtype_b is None or np.dtype(dtype_b) == f64)
            and all(X is None or kernel_ready(X) for X in operands)
            and available())


def product_homes(s_layout, t_layout, bp: int, bq: int,
                  bn: int) -> tuple[list[tuple[str, int]], int]:
    """Where the depth-first driver keeps each product until ``form_C``.

    Rank ``r``'s product is the last reader of its S and T chains, so the
    slab rows they occupy (when they have one -- alias chains are views of
    the parent -- and it is big enough) are free for a later product.  Per
    rank: ``("s", row)`` / ``("t", row)`` to overwrite that slab row, or
    ``("m", i)`` for row ``i`` of a slab of its own; returned with the
    number of such rows -- one for Strassen instead of seven -- which is
    what the arena footprint charges.
    """
    homes: list[tuple[str, int]] = []
    free: list[tuple[str, int]] = []
    own = 0
    for (s_kind, s_row), (t_kind, t_row) in zip(s_layout, t_layout):
        if free:
            homes.append(free.pop())
        else:
            homes.append(("m", own))
            own += 1
        if s_kind == "slot" and bn <= bq:       # bp*bn fits in bp*bq
            free.append(("s", s_row))
        if t_kind == "slot" and bp <= bq:       # bp*bn fits in bq*bn
            free.append(("t", t_row))
    return homes, own


def _whole(kernel, nrows: int) -> None:
    """The sequential sweep: one call over every row."""
    kernel(0, nrows)


class CompiledChains:
    """Compiled chain kernels for one algorithm (+ a multiply driver).

    The driver mirrors :func:`repro.core.recursion.multiply` — dynamic
    peeling, leaf dgemm — but forms every S/T/C linear combination with
    the fused single-pass C kernels.  Each kernel works on a row range
    ``[i0, i1)`` of its blocks and touches nothing outside those rows, so
    ranges may run concurrently (ctypes releases the GIL) and re-running
    one recomputes it from its inputs: :meth:`form_S`, :meth:`form_T` and
    :meth:`form_C` are what the parallel schedules fan out.

    Whoever calls the kernels keeps their no-overlap contract (module
    docstring): slab, product, ``Y`` and destination buffers are distinct
    allocations that overlap neither each other nor the operands.  The
    loops are compiled on that promise.
    """

    def __init__(self, algorithm: FastAlgorithm, cse: bool = False):
        self.algorithm = algorithm
        self.cse = cse
        self._s, self._t, self._c = _prepare(algorithm, cse)
        self.source = generate_c_source(algorithm, cse=cse)
        self.lib = _compile_source(self.source)
        ptr, lng = ctypes.c_void_p, ctypes.c_long
        for fn in (self.lib.form_S, self.lib.form_T):
            fn.restype = None
            fn.argtypes = [ptr, lng, lng, lng, ptr, lng, lng]
        self.lib.form_C.restype = None
        self.lib.form_C.argtypes = [ctypes.POINTER(ptr), lng, lng, ptr, lng,
                                    ptr, ptr, lng, ptr, lng, lng, lng, lng]

    # ------------------------------------------------------------ kernels
    def slab_rows(self) -> tuple[int, int, int]:
        """Rows of the S slab, of the T slab (definitions + non-alias
        chains; never empty) and of ``form_C``'s ``Y`` scratch."""
        return (max(self._s["slots"], 1), max(self._t["slots"], 1),
                len(self._c["defs"]))

    def form_S(self, A, bp: int, bq: int, slab, i0: int, i1: int) -> None:
        """Rows ``[i0, i1)`` of every S chain over the ``bp x bq`` blocks
        of ``A`` (:func:`kernel_ready`) into ``slab``."""
        self.lib.form_S(A.ctypes.data, A.strides[0] // 8, bp, bq,
                        slab.ctypes.data, i0, i1)

    def form_T(self, B, bq: int, bn: int, slab, i0: int, i1: int) -> None:
        self.lib.form_T(B.ctypes.data, B.strides[0] // 8, bq, bn,
                        slab.ctypes.data, i0, i1)

    @staticmethod
    def product_rows(products):
        """The row-pointer array ``form_C`` reads the ``R`` products
        through: the rows of a ``(R, bp * bn)`` slab, or any sequence of
        contiguous product buffers."""
        return (ctypes.c_void_p * len(products))(
            *(M.ctypes.data for M in products))

    def form_C(self, Mrows, bp: int, bn: int, C, Y, i0: int, i1: int,
               strip=None) -> None:
        """Rows ``[i0, i1)`` of every ``bp x bn`` block of ``C``
        (:func:`kernel_ready`) from :meth:`product_rows`.  ``Y`` holds the
        C-side definitions of one row at a time (``None`` without any), so
        ranges that run concurrently must not share it.  ``strip`` is the
        peeled inner-dimension strip ``(A12, B21)`` of the level whose core
        ``C`` is (views of ``kernel_ready`` operands, zero columns wide
        where nothing peeled): each stored row takes its ``A12[i, :] @ B21``
        on the spot, in the term order of
        :func:`repro.util.matrices.peel_fixup`."""
        if strip is None:
            strip_args = (None, 0, None, 0, 0)
        else:
            A12, B21 = strip
            strip_args = (A12.ctypes.data, A12.strides[0] // 8,
                          B21.ctypes.data, B21.strides[0] // 8, A12.shape[1])
        self.lib.form_C(Mrows, bp, bn, C.ctypes.data, C.strides[0] // 8,
                        None if Y is None else Y.ctypes.data, *strip_args,
                        i0, i1)

    def operand(self, side: str, rr: int, slab, X, rows: int, cols: int):
        """Rank ``rr``'s S (``side="s"``) or T operand: its slab row, or
        for an alias chain the block of ``X`` itself -- a row-strided view
        that ``np.matmul`` and a deeper level's kernels take as it is."""
        kind, idx = (self._s if side == "s" else self._t)["layout"][rr]
        if kind == "slot":
            return slab[idx].reshape(rows, cols)
        bi, bj = divmod(idx, X.shape[1] // cols)
        return X[bi * rows:(bi + 1) * rows, bj * cols:(bj + 1) * cols]

    # ------------------------------------------------------------- driver
    def multiply(
        self,
        A: np.ndarray,
        B: np.ndarray,
        steps: int = 1,
        out: np.ndarray | None = None,
        workspace=None,
    ) -> np.ndarray:
        """``A @ B`` with ``steps`` recursion levels of the algorithm.

        The compiled kernels are float64-only, so the driver computes in
        double and returns ``np.result_type(A, B)`` -- float32 in, float32
        out (rounded once at the end), never a silent upcast.  Result
        dtypes double cannot hold exactly by kind (complex, extended
        precision) are rejected up front with a pointer at the python
        backends instead of being quietly narrowed.

        ``out`` receives the product (same contract as the
        interpreter: result dtype, writeable, non-overlapping).  With a
        ``workspace`` sized by
        :func:`repro.core.workspace.cbackend_footprint` every slab and
        product buffer comes from the arena; the
        returned array is never arena memory (a float64 ``out`` is
        written directly, any other result is a fresh cast).  Only what
        the kernels cannot address in place (:func:`kernel_ready`) is
        packed, once, on entry, into the same arena (the footprint charges
        another dtype's copies; for a strided float64 matrix the call
        reserves them itself).
        """
        A = np.asarray(A)
        B = np.asarray(B)
        check_matmul_dims(A, B)
        if out is not None:
            check_out(out, A, B)
        dtype = np.result_type(A, B)
        if dtype.kind not in "fiub" or (dtype.kind == "f"
                                        and dtype.itemsize > 8):
            raise ValueError(
                f"the native chain backend computes in float64 and cannot "
                f"represent result dtype {dtype}; use "
                f"repro.codegen.compile_algorithm or the interpreter instead"
            )
        ws = workspace
        if ws is not None:
            ws.reset()
            # the caller sized the arena from the dtypes; a float64 matrix
            # whose strides the kernels cannot walk is packed into a copy
            # the footprint has no term for, so the call reserves both
            # (a take costs its bytes plus up to two roundings)
            strided = [X for X in (A, B, out) if X is not None
                       and X.dtype == np.float64 and not kernel_ready(X)]
            if strided:
                ws.reserve(
                    cbackend_footprint(self.algorithm, self.cse,
                                       (*A.shape, B.shape[1]), A.dtype,
                                       steps, B.dtype)
                    + sum(X.nbytes + 2 * ALIGNMENT for X in strided))
        Ad, Bd = (X if kernel_ready(X) else _packed(X, ws) for X in (A, B))
        if dtype.kind in "iub" and Ad.size and Bd.size:
            # double holds integers exactly only up to 2^53, and the fast
            # algorithm's *intermediates* (S_r/T_r sums, M_r products)
            # overflow that range before the final entries do -- so the
            # guard is an a-priori worst-case bound on every intermediate:
            # |S| <= alpha^steps * max|A|, |T| <= beta^steps * max|B|, a
            # leaf product <= q * |S||T|, and the combine sweep amplifies
            # by gamma^steps.  Conservative by design: rejecting a
            # representable product loudly beats returning a rounded one.
            growth = stability_factors(self.algorithm).emax ** max(steps, 1)
            bound = (float(np.abs(Ad).max()) * float(np.abs(Bd).max())
                     * A.shape[1] * growth)
            if bound >= 2.0 ** 53:
                raise ValueError(
                    "integer product may exceed float64's exactly"
                    " representable range (2^53) in the fast algorithm's"
                    " intermediates; the native chain backend computes in"
                    " double -- use the interpreter for big-integer products"
                )
        p, r = A.shape[0], B.shape[1]
        if out is not None and kernel_ready(out):
            dest = out
        elif dtype == np.float64 and out is None:
            # the returned array must never be arena memory (the next
            # call resets the workspace), so it comes from the heap
            dest = np.empty((p, r), dtype=np.float64)
        else:
            dest = _take(ws, (p, r))
        self._recurse(Ad, Bd, steps, dest, ws)
        if dest is out:
            return out
        if dtype.kind in "iub":
            np.rint(dest, out=dest)
        if out is not None:
            np.copyto(out, dest, casting="unsafe")
            return out
        return dest if dtype == np.float64 else dest.astype(dtype)

    __call__ = multiply

    def _recurse(self, A, B, steps: int, C: np.ndarray, ws,
                 sweep=_whole) -> None:
        """Write ``A @ B`` into ``C`` with ``steps`` levels (all three
        ``kernel_ready``).  ``sweep(kernel, nrows)`` runs ``kernel(i0, i1)``
        over ``[0, nrows)``: in one call here, in row ranges on the pool
        under the parallel DFS schedule."""
        p, q = A.shape
        r = B.shape[1]
        m, k, n = self.algorithm.base_case
        if not should_split(steps, p, q, r, m, k, n):
            np.matmul(A, B, out=C)
            return
        A11, A12 = peel_split(A, m, k)[:2]
        B11, _, B21, _ = peel_split(B, k, n)
        self._core(A11, B11, C[:A11.shape[0], :B11.shape[1]], steps, ws,
                   sweep, (A12, B21))
        peel_fixup(C, A, B, (m, k, n), np.matmul, strip=False)

    def _core(self, A, B, Cout, steps, ws, sweep, strip) -> None:
        """One level on an evenly divisible core; writes into ``Cout``,
        the peeled inner ``strip`` ``(A12, B21)`` included."""
        m, k, n = self.algorithm.base_case
        R = self.algorithm.rank
        p, q = A.shape
        r = B.shape[1]
        bp, bq, bn = p // m, q // k, r // n
        s_rows, t_rows, y_rows = self.slab_rows()

        mark = ws.mark() if ws is not None else None
        Sslab = _take(ws, (s_rows, bp * bq))
        Tslab = _take(ws, (t_rows, bq * bn))
        sweep(functools.partial(self.form_S, A, bp, bq, Sslab), bp)
        sweep(functools.partial(self.form_T, B, bq, bn, Tslab), bq)

        # depth first, a product may overwrite a chain an earlier rank
        # consumed (product_homes); only the rest get rows of their own.
        # A deeper recursion level writes its result straight into them.
        homes, own = product_homes(self._s["layout"], self._t["layout"],
                                   bp, bq, bn)
        slabs = {"s": Sslab, "t": Tslab, "m": _take(ws, (own, bp * bn))}
        products = [slabs[kind][row][:bp * bn] for kind, row in homes]
        for rr in range(R):
            self._recurse(self.operand("s", rr, Sslab, A, bp, bq),
                          self.operand("t", rr, Tslab, B, bq, bn),
                          steps - 1, products[rr].reshape(bp, bn), ws, sweep)

        Y = _take(ws, (y_rows * bn,)) if y_rows else None
        sweep(functools.partial(self.form_C, self.product_rows(products),
                                bp, bn, Cout, Y, strip=strip), bp)
        if ws is not None:
            ws.release(mark)


#: compiled kernels by what was emitted for them -- an algorithm's name,
#: base case and coefficients, and the cse flag -- so the catalog entries,
#: and any transformed or ad hoc algorithm handed to the schedules, are a
#: dictionary hit after their first use (``FastAlgorithm`` itself is
#: unhashable: its factors are arrays).  Guarded by ``_lib_lock``.
_CHAINS: dict[tuple, CompiledChains] = {}
_CHAINS_MAX = 64


def _emitted_key(alg: FastAlgorithm) -> tuple:
    return (alg.name, alg.base_case, alg.U.tobytes(), alg.V.tobytes(),
            alg.W.tobytes())


def compile_chains(
    algorithm: str | FastAlgorithm, cse: bool = False
) -> CompiledChains:
    """Compile (or fetch from cache) the C chain kernels for an algorithm."""
    if not available():
        raise RuntimeError(
            "no working C compiler; the native chain backend is unavailable "
            "(set REPRO_CC or install gcc)"
        )
    if isinstance(algorithm, str):
        from repro.algorithms import get_algorithm

        algorithm = get_algorithm(algorithm)
    key = (algorithm.memo("_emitted_key", _emitted_key), cse)
    cc = _CHAINS.get(key)
    if cc is None:
        built = CompiledChains(algorithm, cse=cse)   # may run the compiler
        with _lib_lock:
            cc = _CHAINS.setdefault(key, built)
            while len(_CHAINS) > _CHAINS_MAX:
                del _CHAINS[next(iter(_CHAINS))]
    return cc


#: algorithms already warned about in :func:`serving_chains`; the warning
#: fires once, the counter every time, a duplicate from two racing threads
#: is benign
_fallback_warned: set[str] = set()


def serving_chains(algorithm: str | FastAlgorithm) -> CompiledChains | None:
    """:func:`compile_chains` for a serving path that must not fail a
    multiply the NumPy chains could have served: a compile or load error
    (compiler uninstalled since tuning, cache dir yanked,
    ``cbackend.compilefail`` chaos) is counted in ``cbackend.fallbacks``,
    warned once per algorithm and answered with ``None``."""
    try:
        return compile_chains(algorithm)
    except (OSError, RuntimeError) as exc:
        telemetry.incr("cbackend.fallbacks")
        name = getattr(algorithm, "name", algorithm)
        if name not in _fallback_warned:
            _fallback_warned.add(name)
            _log.warning(
                "compiled chain kernels unavailable for %r (%s); its chains "
                "are formed by the NumPy executors instead", name, exc)
        return None


def multiply(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: str | FastAlgorithm = "strassen",
    steps: int = 1,
    cse: bool = False,
) -> np.ndarray:
    """One-call native-chain fast multiply (compare with ``repro.multiply``)."""
    return compile_chains(algorithm, cse=cse).multiply(A, B, steps=steps)
