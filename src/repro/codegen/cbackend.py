"""Native (C) backend for the addition chains -- the paper's actual codegen.

The paper's generator emits C++ so that each ``S_r``/``T_r``/``C_ij``
linear combination becomes one fused loop: every operand is read once and
the destination written once per pass, with no interpreter or temporary-
array overhead.  NumPy forms a chain one ufunc pass *per term*, as the
interpreter (:mod:`repro.core.recursion`) does.  This module closes the
gap with one fixed C source,
``fmm.c`` (:data:`LIBRARY`), compiled once per element type -- ``double``
and ``float`` -- which runs any algorithm from its :class:`Descriptor`:
flat int and ``real`` arrays built once per (algorithm, cse, element type)
from :func:`_prepare`'s chains and layouts and read by C in place, the
way Huang et al.'s routines take their operands and coefficients as
arguments.  A sequential product is one ``ctypes`` call, which forms the
chains, calls the vendor gemm for every product, recurses and peels, all
in C (the paper's generated code calls dgemm from inside its step the
same way).

The library's interface, over ``real`` and a descriptor ``f``::

    void form_S(const fmm_t *f, const real *A, long lda, long bp, long bq,
                real *S, long i0, long i1);
    void form_T(const fmm_t *f, const real *B, long ldb, long bp, long bq,
                real *T, long i0, long i1);
    void form_C(const fmm_t *f, const real **M, const long *ldm,
                long bp, long bq, real *C, long ldc, real *Y,
                const real *A12, long lda, const real *B21, long ldb,
                long dq, long i0, long i1);
    int fmm_step(const fmm_t *f, const blas_t *x, long steps,
                 int threads, const real *A, long lda, const real *B,
                 long ldb, real *C, long ldc, long p, long q, long r,
                 char *w, char *end);
    void fmm_team(int sync, void (*job)(int, void *, int), int n,
                  size_t elsize, void *data, int arg);

``form_S``/``form_T`` read the m·k (k·n) sub-blocks of the parent operand
in place (row stride ``lda``, in elements) and write CSE definitions plus
all non-alias chains into a contiguous slab; alias chains (single-nonzero
columns after scalar piping) are never formed -- their products read the
parent's block in place, the paper's "no temporary is formed" rule.
``form_C`` assembles the output blocks from an array of product
pointers, each product's rows ``ldm[r]`` elements apart; ``Y`` is
caller-provided scratch for C-side CSE definitions.
Where dynamic peeling (Section 3.5) stripped ``dq`` columns off the inner
dimension, ``form_C`` also adds their contribution -- ``C[i, :] += A12[i,
t] * B21[t, :]``, ``t = 0 .. dq-1`` -- to each block row right after
storing it, while the row is in L1: the strip gets no pass over ``C`` of
its own and no buffer (``dq = 0``: nothing peeled, the pointers may be
NULL).  Every kernel works on the rows ``[i0, i1)`` of its blocks and
touches no other row, so one sweep can be cut into ranges that run
concurrently: the step cuts each level into ``threads`` ranges on the
library's team (one range, the whole level, at one thread), the BFS and
HYBRID schedules (:mod:`repro.parallel.schedules`) fan the ranges of the
levels they form themselves out over their worker pool and run every
child product below them as a one-thread ``fmm_step`` call -- whenever
:func:`chains_fused` says the operands allow it.

Each chain runs over a row in passes of at most ten terms, in its own
term order, the first pass storing the target and each later one adding
to it; with ``-ffp-contract=off`` (a fused multiply-add would round once
where NumPy rounds twice) every entry rounds as the chain written out in
one expression rounds it, so the step agrees with the interpreter bit
for bit (without CSE, which reorders the sums).

``fmm_step`` is the sequential product, ``steps`` levels deep: it splits
where :func:`repro.core.recursion.should_split` does (else it is one
vendor product), carves the level's S, T, product and ``Y`` rows from the
arena region ``[w, end)`` in :func:`repro.core.workspace.
cbackend_footprint`'s order and rounding, runs ``form_S`` and ``form_T``,
computes each rank's product into its :func:`product_homes` home by a
call to itself, runs ``form_C`` with the inner strip, and adds the right
and bottom peel strips.  At ``threads`` > 1 (DFS) each level's
``form_S``/``form_T``, and its ``form_C`` unless C-side definitions share
its one ``Y`` row, run over ``threads`` row ranges on the team, the
caller taking one: a range never reorders a chain's terms, so the bits
are the one-thread step's.  A product's home is the block of ``C`` whose
chain reads it last, where that chain reads it in its first pass
(:func:`c_hosts`): ``form_C`` then reads it in place and stores the
block over it.  Only the products ``C`` cannot hold take a consumed S or
T row, or a row of their own.  ``x`` holds the vendor's cblas ``gemm``,
``gemv`` and ``dot`` (:func:`repro.parallel.blas.matmul_kernels`, passed as
function pointers: no link-time dependency) and the team; every product
is issued as ``np.matmul`` would issue it.  It returns -1, having written nothing past
``end``, when the region is too small.  Where the probe finds no cblas,
:func:`chains_fused` says no and the interpreter serves, as it does on a
host without a compiler.

**Every pass loop is marked dependence-free** (``NODEP``: ``#pragma GCC
ivdep``, clang's ``vectorize(assume_safety)``, nothing elsewhere).  With
more than ten pointer pairs in a loop gcc stops versioning it for
aliasing and runs it scalar.  The hint asserts what holds by
construction, in two halves.  The descriptor's: no chain's target is one
of its own sources, except the target itself read at the same ``j`` it
is written -- by an adding pass, or by the first pass of the chain whose
block holds a product it reads -- proven per descriptor by
:mod:`repro.analyze.cemit`.  The
caller's, **the no-overlap contract of these kernels**: buffers passed as
different arguments do not overlap -- the slabs, products and ``Y`` are
distinct arena takes (or fresh arrays), never the operands; ``C`` is the
caller's ``out`` (checked against ``A`` and ``B`` by
:func:`repro.core.workspace.check_out`), a fresh array, or a buffer of the
level above that none of this level's operands occupies
(:func:`product_homes` frees a chain's row only once its rank is done; a
product ``C`` holds is a block of ``C`` itself);
``A12``/``B21`` are views of the operands.

**One thread team per process** (``fmm_team``).  The first library to load
installs its team through :func:`repro.parallel.blas.install_team`: as
OpenBLAS's threads callback, so every threaded vendor region -- DFS's
leaf gemms, HYBRID's remainder, the ``gemm_batch`` waves, ``np.matmul``
-- runs on it, and as the step's team.  A region of ``n`` jobs runs one in
its caller and the others on ``n - 1`` helpers at once; a helper blocks
as soon as its job ends, where OpenBLAS's own workers spin on for about
0.1 s and share the cores with whatever runs next.  Regions of
different threads take turns on the team (the vendor's job ``i`` works
in its buffer ``i``, so two regions at once would share buffers); only a
region started inside a job, where waiting would deadlock, runs on
threads of its own.  A forked child grows a team of its own.  Without
the library (no compiler) or the vendor's setter (MKL, OpenBLAS before
0.3.27), the vendor keeps its own threads.

The library is compiled lazily, at the first :func:`compile_chains` of an
element type, and cached on disk under ``$REPRO_CACHE_DIR/cbackend``
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
(``RuntimeError``), never silently, when no compiler exists.  Serving is
a rule, :func:`chains_fused`, not a plan dimension: every sequential
fast plan (:func:`repro.tuner.dispatch.execute_plan`) and every parallel
schedule asks it, goes through :func:`serving_chains` -- which counts and
warns instead of raising -- and falls back to the interpreter, so a
compile failure never fails a multiply.

A call computes at its product's precision: float32 in the ``float``
library, everything else in the ``double`` one, returning
``np.result_type(A, B)`` (rounded once on exit).  Result dtypes double
cannot represent by kind -- complex, extended-precision floats -- are
rejected with ``ValueError``.  :meth:`CompiledChains.multiply` accepts
``out=``/``workspace=`` like the interpreter: with a workspace sized by
:func:`repro.core.workspace.cbackend_footprint` the warm path allocates
nothing from the heap (peeling needs no buffer at all).
"""

from __future__ import annotations

import ctypes
import dataclasses
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
from repro.core import recursion
from repro.core.algorithm import FastAlgorithm
from repro.core.stability import stability_factors
from repro.core.workspace import (ALIGNMENT, cbackend_carve_bytes,
                                  cbackend_footprint, check_out,
                                  dfs_footprint)
from repro.obs import telemetry
from repro.parallel import blas
from repro.util.validation import check_matmul_dims

_CC = os.environ.get("REPRO_CC", "cc")
#: ``-ffp-contract=off``: a fused multiply-add rounds once where NumPy
#: rounds twice, and the bit-for-bit agreement with the interpreter
#: must not rest on gcc's ISO-mode default; ``-pthread``: the library's
#: team (``fmm_team``) starts and blocks POSIX threads
_COMMON_FLAGS = ["-march=native", "-std=c99", "-ffp-contract=off", "-fPIC",
                 "-pthread", "-shared"]
#: the loop vectoriser under the dynamic cost model and nothing else that
#: ``-O3`` adds (SLP, vectorised epilogues): every chain loop SIMD at under
#: half the compile CPU -- plain ``-O2``'s very-cheap cost model leaves
#: them scalar.  ``-O3`` is the fallback when the compiler rejects a flag
#: (:func:`available` tries both, once).
_OPT_FLAGS = (["-O2", "-ftree-loop-vectorize", "-fvect-cost-model=dynamic",
               "-fno-tree-slp-vectorize", "--param", "vect-epilogues-nomask=0"],
              ["-O3"])
_CFLAGS = [*_OPT_FLAGS[0], *_COMMON_FLAGS]
_log = logging.getLogger(__name__)

#: loaded shared objects keyed by :func:`_source_key`; guarded by
#: ``_lib_lock`` (registered in the concurrency shared-state registry) --
#: concurrent first-compiles of one library must converge on one handle
_lib_lock = threading.Lock()
_LIB_CACHE: dict[str, ctypes.CDLL] = {}

#: resolved on-disk cache directory: ``False`` until first resolution,
#: then a ``Path`` or ``None`` (= unwritable, compile-per-process);
#: ``warned`` makes the degradation warning fire once per process.
#: Guarded by ``_lib_lock`` like the library cache itself.
_CACHE_STATE: dict[str, object] = {"dir": False, "warned": False}


@functools.lru_cache(maxsize=1)
def available() -> bool:
    """True when a C compiler is present and produces loadable objects.
    Settles the flag set too: the first of :data:`_OPT_FLAGS` the compiler
    accepts."""
    global _CFLAGS
    for opt in _OPT_FLAGS:
        _CFLAGS = [*opt, *_COMMON_FLAGS]
        try:
            # the probe must never consume an injected cbackend.compilefail
            # firing (and a transient fault must not poison this lru cache)
            _compile_source("void repro_probe(void) {}\n", fire_faults=False)
            return True
        except (OSError, RuntimeError, subprocess.SubprocessError):
            continue
    return False


# ======================================================================
# chain preparation (shared by the descriptor and the footprints)
# ======================================================================
def _prepare(algorithm: FastAlgorithm, cse: bool):
    """Extract chains, apply CSE, and fix the slab layouts.

    Returns ``(s, t, c)`` where each side is a dict with ``chains``,
    ``defs`` and — for s/t — ``layout``: per rank column either
    ``("alias", block_index)`` or ``("slot", slab_row)``; definitions
    occupy the leading slab rows in their creation order, which is also
    program order (``eliminate`` only creates a definition before its
    first use, so dependencies always point backwards).

    Kept on the algorithm (:meth:`FastAlgorithm.memo`): the arena
    footprint asks on every parallel call.
    """
    return algorithm.memo(f"_cbackend_prepared_{int(cse)}",
                          functools.partial(_extract, cse=cse))


def _extract(algorithm: FastAlgorithm, cse: bool):
    prog = extract_chains(algorithm)
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
    sides["c"]["hosts"] = _hosts(sides["c"]["defs"], sides["c"]["chains"])
    return sides["s"], sides["t"], sides["c"]


#: the terms a chain's first pass reads (``fmm.c``'s ``W``); every later
#: pass adds to the target the first one stored
PASS_TERMS = 10


def _hosts(defs: list[Chain], chains: list[Chain]) -> dict[int, int]:
    """Product -> the C block that holds it (:func:`c_hosts`): block ``b``
    holds product ``r`` when chain ``b`` is the last chain of the C
    program, definitions included, that reads ``r``, and reads it only in
    its first pass -- greedily in program order, one product a block."""
    program = [*defs, *chains]
    last = {t.source: i for i, ch in enumerate(program) for t in ch.terms}
    hosts = {}
    for i, ch in enumerate(chains, len(defs)):
        later = {t.source for t in ch.terms[PASS_TERMS:]}
        for t in ch.terms[:PASS_TERMS]:
            if (t.source.startswith("M") and last[t.source] == i
                    and t.source not in later):
                hosts[int(t.source[1:])] = int(ch.target[1:])
                break
    return hosts


def c_hosts(algorithm: FastAlgorithm, cse: bool = False) -> dict[int, int]:
    """The products ``C`` holds: rank -> the block whose chain reads it
    last, in its first pass.  That chain's first pass reads the product
    and stores the block at the same ``j``, and no later chain reads it,
    so the product may be written straight into the block -- in every
    shape variant, as a product is exactly one block of ``C``.
    ``strassen`` and ``winograd`` hold 4 of their 7 products, one in every
    block, ``s333`` 9 of 23; a dense scheme, whose products every block
    reads, few (``s424`` 1 of 26)."""
    return _prepare(algorithm, cse)[2]["hosts"]


# ======================================================================
# the descriptor: an algorithm as the library reads it
# ======================================================================
#: the element types the library is compiled for: C name -> NumPy dtype
REALS = {"double": np.dtype(np.float64), "float": np.dtype(np.float32)}

#: the one C source every algorithm runs on (module docstring)
LIBRARY = Path(__file__).with_name("fmm.c")

#: what a descriptor's indices name, per side: a block or product
#: (``i >= 0``), a scratch row (``~i``), and -- C only -- an output block
_NAMES = (("A", "S"), ("B", "T"), ("M", "Y"))


@dataclasses.dataclass(frozen=True)
class Descriptor:
    """One algorithm, CSE setting and element type as ``fmm.c``'s
    ``fmm_t`` holds it: flat arrays the library reads in place.

    ``programs`` are the S, T and C sides' chains, definitions first:
    ``[chains, (target, terms, *sources) per chain]``, an index ``i >= 0``
    naming an A (B) block, a product or a C block, ``~i`` row ``i`` of the
    S (T) slab or of ``Y``.  ``coefficients`` hold one entry per term in
    program order, in the element type.  ``operands`` are each rank's S
    and T operand (``~row`` of the slab, or an alias chain's block),
    ``homes`` :func:`product_homes` per shape variant ``v = (bn <= bq) + 2
    (bp <= bq)``, ``(kind, index)`` with kind 0 an S row, 1 a T row, 2 an
    own row, 3 the C block that holds the product (:func:`c_hosts`)."""

    base_case: tuple[int, int, int]
    rank: int
    rows: np.ndarray
    programs: tuple[np.ndarray, np.ndarray, np.ndarray]
    coefficients: tuple[np.ndarray, np.ndarray, np.ndarray]
    operands: np.ndarray
    homes: np.ndarray

    def chains(self, side: int):
        """``(target, [(coeff, source), ...])`` per chain of a side."""
        prog, coef = self.programs[side], self.coefficients[side]
        pos, term = 1, 0
        for _ in range(int(prog[0])):
            target, n = int(prog[pos]), int(prog[pos + 1])
            yield target, [(float(coef[term + u]), int(prog[pos + 2 + u]))
                           for u in range(n)]
            pos, term = pos + 2 + n, term + n

    def render(self) -> str:
        """One line per chain, ``target <- terms``, then each rank's
        operands and the homes of each shape variant."""
        def name(side, i, target=False):
            block, row = _NAMES[side]
            if i < 0:
                return f"{row}[{~i}]"
            return f"C{i}" if side == 2 and target else f"{block}{i}"

        m, k, n = self.base_case
        s_rows, t_rows, y_rows = self.rows
        lines = [f"<{m},{k},{n}> rank {self.rank}: S rows {s_rows}, T rows"
                 f" {t_rows}, Y rows {y_rows}"]
        for side in range(3):
            lines += [f"{name(side, tgt, True)} <- " + " ".join(
                f"{c:+g} {name(side, src)}" for c, src in terms)
                for tgt, terms in self.chains(side)]
        lines += [f"M{r} = {name(0, a)} @ {name(1, b)}"
                  for r, (a, b) in enumerate(self.operands)]
        slabs = ("S", "T", "P", "C")
        lines += [f"homes v{v}: " + " ".join(
            f"{slabs[slab]}[{row}]" for slab, row in homes)
            for v, homes in enumerate(self.homes)]
        return "\n".join(lines)


def _program(defs: list[Chain], chains: list[Chain], rows: dict[str, int],
             dtype) -> tuple[np.ndarray, np.ndarray]:
    """A side's chains, ``defs`` first, as (program, coefficients); a
    name in ``rows`` is that scratch row, any other its block index."""
    def code(name):
        return ~rows[name] if name in rows else int(name[1:])

    prog, coef = [len(defs) + len(chains)], []
    for ch in (*defs, *chains):
        prog += [code(ch.target), len(ch.terms),
                 *(code(t.source) for t in ch.terms)]
        coef += [t.coeff for t in ch.terms]
    return np.array(prog, np.int32), np.array(coef, dtype)


def descriptor(algorithm: FastAlgorithm, cse: bool = False,
               real: str = "double") -> Descriptor:
    """``algorithm``'s :class:`Descriptor` over C type ``real`` (a key of
    :data:`REALS`), from :func:`_prepare`'s chains and layouts.  A rank
    whose U or V column is all zero has an empty S or T chain, which the
    library cannot run: it would read a slab row no chain writes."""
    if real not in REALS:
        raise ValueError(f"real must be one of {tuple(REALS)}, got {real!r}")
    dead = np.flatnonzero(~(algorithm.U.any(0) & algorithm.V.any(0)))
    if dead.size:
        raise ValueError(f"degenerate rank column {int(dead[0])} of "
                         f"{algorithm.name}: empty S or T chain")
    s, t, c = _prepare(algorithm, cse)
    programs, coefficients = [], []
    for side in (s, t):
        rows = {d.target: i for i, d in enumerate(side["defs"])}
        slots = []
        for ch, (kind, row) in zip(side["chains"], side["layout"]):
            if kind == "slot":
                rows[ch.target] = row
                slots.append(ch)
        prog, coef = _program(side["defs"], slots, rows, REALS[real])
        programs.append(prog)
        coefficients.append(coef)
    prog, coef = _program(c["defs"], c["chains"],
                          {d.target: i for i, d in enumerate(c["defs"])},
                          REALS[real])
    code = {"s": 0, "t": 1, "m": 2, "c": 3}
    homes = [[(code[kind], row) for kind, row in product_homes(
        s["layout"], t["layout"], c["hosts"], 1 if v & 2 else 3, 2,
        1 if v & 1 else 3)[0]]
        for v in range(4)]
    return Descriptor(
        base_case=algorithm.base_case, rank=algorithm.rank,
        rows=np.array([max(s["slots"], 1), max(t["slots"], 1),
                       len(c["defs"])], np.int32),
        programs=(*programs, prog), coefficients=(*coefficients, coef),
        operands=np.array([[~row if kind == "slot" else row
                            for kind, row in lays]
                           for lays in zip(s["layout"], t["layout"])],
                          np.int32).reshape(-1, 2),
        homes=np.array(homes, np.int32).reshape(4, -1, 2))


class _Fmm(ctypes.Structure):
    """``fmm_t``: a :class:`Descriptor`'s arrays by address."""

    _fields_ = [("bm", ctypes.c_int), ("bk", ctypes.c_int),
                ("bn", ctypes.c_int), ("rank", ctypes.c_int),
                ("rows", ctypes.c_int * 3), ("prog", ctypes.c_void_p * 3),
                ("coef", ctypes.c_void_p * 3), ("operand", ctypes.c_void_p),
                ("home", ctypes.c_void_p)]

    @classmethod
    def of(cls, d: Descriptor) -> "_Fmm":
        def addresses(arrays):
            return (ctypes.c_void_p * 3)(*(a.ctypes.data for a in arrays))

        return cls(*d.base_case, d.rank, (ctypes.c_int * 3)(*d.rows),
                   addresses(d.programs), addresses(d.coefficients),
                   d.operands.ctypes.data, d.homes.ctypes.data)


@functools.lru_cache(maxsize=None)
def library_source(real: str) -> str:
    """:data:`LIBRARY` over C type ``real``."""
    return f"typedef {real} real;\n{LIBRARY.read_text()}"


def _declare(lib: ctypes.CDLL) -> None:
    """The library's signatures, set before its handle is shared, and its
    team offered as the process's (:func:`repro.parallel.blas.install_team`:
    the first library loaded lends its team to the vendor and the step)."""
    ptr, lng = ctypes.c_void_p, ctypes.c_long
    for fn in (lib.form_S, lib.form_T):
        fn.restype = None
        fn.argtypes = [ptr, ptr, lng, lng, lng, ptr, lng, lng]
    lib.form_C.restype = None
    lib.form_C.argtypes = [ptr, ctypes.POINTER(ptr), ctypes.POINTER(lng),
                           lng, lng, ptr, lng, ptr, ptr, lng, ptr, lng, lng,
                           lng, lng]
    lib.fmm_step.restype = ctypes.c_int
    lib.fmm_step.argtypes = [ptr, ptr, lng, ctypes.c_int, ptr, lng, ptr, lng,
                             ptr, lng, lng, lng, lng, ptr, ptr]
    blas.install_team(ctypes.cast(lib.fmm_team, ctypes.c_void_p).value)


def _library(real: str) -> ctypes.CDLL:
    """The library over ``real``, compiled at its first use (or found in
    the on-disk cache) and loaded once per process."""
    return _compile_source(library_source(real), declare=_declare)


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


def _compile_source(src: str, fire_faults: bool = True,
                    declare=None) -> ctypes.CDLL:
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
    if declare is not None:
        declare(lib)
    with _lib_lock:
        # a concurrent compile of the same key may have won: converge on
        # one handle so `_compile_source(src) is _compile_source(src)`
        return _LIB_CACHE.setdefault(key, lib)


def _take(ws, shape, dtype) -> np.ndarray:
    """A buffer from the arena (heap when no workspace given)."""
    if ws is None:
        return np.empty(shape, dtype=dtype)
    return ws.take(shape, dtype)


def _packed(X: np.ndarray, ws, dtype) -> np.ndarray:
    """A contiguous ``dtype`` copy of ``X``, arena-backed when possible."""
    buf = _take(ws, X.shape, dtype)
    np.copyto(buf, X)
    return buf


def kernel_dtype(dtype_a, dtype_b=None) -> np.dtype:
    """The element type the kernels compute ``dtype_a x dtype_b`` in: a
    float32 product at its own precision, every other one in double."""
    res = np.result_type(dtype_a, dtype_a if dtype_b is None else dtype_b)
    return REALS["float"] if res == REALS["float"] else REALS["double"]


def kernel_ready(X: np.ndarray, dtype=np.float64) -> bool:
    """Can the ``dtype`` kernels address ``X`` in place?  They walk a
    matrix of their element type row by row (``X + i*ldx``, unit stride
    inside a row), so anything else -- another dtype, strided or reversed
    columns, reversed rows -- has to be packed first
    (:meth:`CompiledChains.multiply`) or served by the interpreter (the
    parallel schedules)."""
    dtype = np.dtype(dtype)
    size = dtype.itemsize
    return (X.dtype == dtype and X.ndim == 2 and X.flags.aligned
            and (X.strides[1] == size or X.shape[1] <= 1)
            and X.strides[0] >= 0 and X.strides[0] % size == 0)


def _step_ready(X: np.ndarray, dtype) -> bool:
    """:func:`kernel_ready`, with rows at least a row apart, as the
    vendor's gemm takes a matrix (a broadcast row is packed)."""
    return kernel_ready(X, dtype) and (
        X.strides[0] >= X.shape[1] * X.itemsize or X.shape[0] <= 1)


#: the schemes whose tasks run the step on the caller's operands in place
#: (the BFS/HYBRID tree); the sequential driver, which DFS is, packs
IN_PLACE_SCHEMES = ("bfs", "hybrid")


def chains_fused(dtype_a, dtype_b=None, scheme: str = "sequential",
                 operands=()) -> bool:
    """Does a ``scheme`` call on these operands run the compiled step?

    The one rule every executor runs by and ``plan_footprint`` and
    ``plan_cost`` size and price by: two float32 or float64 operands (a
    float32 product runs the ``float`` kernels, any other the ``double``
    ones; a narrower float is the interpreter's, which computes it in
    float64 as every entry point does), a compiler, and the vendor's
    cblas, through which the step issues its products.  That is all the
    sequential driver needs -- DFS is that driver at ``T``-thread BLAS --
    because it packs what the step cannot address (a mixed pair into
    double, a strided matrix into a copy).  The
    BFS/HYBRID tree (:data:`IN_PLACE_SCHEMES`) hands the caller's
    operands to many ``fmm_step`` calls as they are, so it also needs one
    dtype on both sides and ``operands`` the step can address in place
    (:func:`kernel_ready`, rows at least a row apart as the vendor's gemm
    takes a matrix; ``None`` for an absent ``out``).  Everything else runs
    the interpreter.
    """
    a = np.dtype(dtype_a)
    b = a if dtype_b is None else np.dtype(dtype_b)
    real = np.result_type(a, b)
    if not (a in REALS.values() and b in REALS.values() and available()
            and blas.matmul_kernels(_real_name(real)) is not None):
        return False
    if scheme not in IN_PLACE_SCHEMES:
        return True
    return a == b and all(X is None or _step_ready(X, real)
                          for X in operands)


def _real_name(dtype) -> str | None:
    """The C type of :data:`REALS` holding ``dtype`` (``None``: none)."""
    return next((name for name, dt in REALS.items()
                 if dt == np.dtype(dtype)), None)


def block(X: np.ndarray, idx: int, rows: int, cols: int) -> np.ndarray:
    """Block ``idx`` (row-major) of the ``rows x cols`` blocks that tile
    ``X`` exactly: an operand's core, or the core of ``C``."""
    bi, bj = divmod(idx, X.shape[1] // cols)
    return X[bi * rows:(bi + 1) * rows, bj * cols:(bj + 1) * cols]


def product_homes(s_layout, t_layout, hosts: dict[int, int], bp: int,
                  bq: int, bn: int) -> tuple[list[tuple[str, int]], int]:
    """Where the depth-first driver keeps each product until ``form_C``.

    A product ``C`` holds (``hosts``, :func:`c_hosts`) is written into its
    block: ``("c", block)``.  Rank ``r``'s product is the last reader of
    its S and T chains, so the slab rows they occupy (when they have one
    -- alias chains are views of the parent -- and it is big enough) are
    free for a later product that ``C`` does not hold: ``("s", row)`` /
    ``("t", row)`` to overwrite that slab row, else ``("m", i)`` for row
    ``i`` of a slab of its own.  Returned with the number of such rows
    -- for Strassen none on square blocks and three where no slab row
    fits, of the seven it took before any reuse -- which is what the arena
    footprint charges.
    """
    homes: list[tuple[str, int]] = []
    free: list[tuple[str, int]] = []
    own = 0
    for rr, ((s_kind, s_row), (t_kind, t_row)) in enumerate(
            zip(s_layout, t_layout)):
        if rr in hosts:
            homes.append(("c", hosts[rr]))
        elif free:
            homes.append(free.pop())
        else:
            homes.append(("m", own))
            own += 1
        if s_kind == "slot" and bn <= bq:       # bp*bn fits in bp*bq
            free.append(("s", s_row))
        if t_kind == "slot" and bp <= bq:       # bp*bn fits in bq*bn
            free.append(("t", t_row))
    return homes, own


class CompiledChains:
    """The library over element type ``real`` with one algorithm's
    :class:`Descriptor`.

    :meth:`multiply` is :func:`repro.core.recursion.multiply` -- dynamic
    peeling, leaf dgemm -- in one call of the library's ``fmm_step``,
    every S/T/C linear combination formed by its fused C passes.
    Each kernel works on a row range
    ``[i0, i1)`` of its blocks and touches nothing outside those rows, so
    ranges may run concurrently (ctypes releases the GIL), and re-running
    a range of :meth:`form_S` or :meth:`form_T` recomputes it from its
    inputs (one of :meth:`form_C` stores blocks over the products they
    hold, so it runs once): they are what the parallel schedules fan out,
    and :meth:`step` is what their tasks run.

    Whoever calls the kernels keeps their no-overlap contract (module
    docstring): slab, product, ``Y`` and destination buffers are distinct
    allocations that overlap neither each other nor the operands -- save
    a product that lives in the block of the destination that holds it
    (:func:`c_hosts`).  The loops are compiled on that promise.
    """

    def __init__(self, algorithm: FastAlgorithm, cse: bool = False,
                 real: str = "double"):
        self.algorithm = algorithm
        self.cse = cse
        self.descriptor = descriptor(algorithm, cse, real)
        self.real, self.dtype = real, REALS[real]
        self._s, self._t, self._c = _prepare(algorithm, cse)
        self._fmm = _Fmm.of(self.descriptor)
        self._f = ctypes.addressof(self._fmm)
        self.lib = _library(real)
        #: arena bytes of the step's carve, per (shape, steps)
        self._carve_bytes = functools.lru_cache(maxsize=256)(
            functools.partial(cbackend_carve_bytes, algorithm, cse,
                              self.dtype))

    # ------------------------------------------------------------ kernels
    def _ld(self, X) -> int:
        """``X``'s row stride in elements, as the kernels take it."""
        return X.strides[0] // self.dtype.itemsize

    def form_S(self, A, bp: int, bq: int, slab, i0: int, i1: int) -> None:
        """Rows ``[i0, i1)`` of every S chain over the ``bp x bq`` blocks
        of ``A`` (:func:`kernel_ready`) into ``slab``."""
        self.lib.form_S(self._f, A.ctypes.data, self._ld(A), bp, bq,
                        slab.ctypes.data, i0, i1)

    def form_T(self, B, bq: int, bn: int, slab, i0: int, i1: int) -> None:
        self.lib.form_T(self._f, B.ctypes.data, self._ld(B), bq, bn,
                        slab.ctypes.data, i0, i1)

    @staticmethod
    def product_rows(products):
        """What ``form_C`` reads the ``R`` products through: their
        addresses, and the row strides in elements of their ``(bp, bn)``
        blocks (:func:`kernel_ready`: a slab row reshaped, or a block of
        ``C`` that holds it).  A product that is not 2-D has no row stride
        to read, so it raises :class:`ValueError`."""
        for M in products:
            if M.ndim != 2:
                raise ValueError(
                    f"product_rows takes (bp, bn) blocks, got a "
                    f"{M.ndim}-D product of shape {M.shape}")
        return ((ctypes.c_void_p * len(products))(
            *(M.ctypes.data for M in products)),
            (ctypes.c_long * len(products))(
                *(M.strides[0] // M.itemsize for M in products)))

    def form_C(self, Mrows, bp: int, bn: int, C, Y, i0: int, i1: int,
               strip=None) -> None:
        """Rows ``[i0, i1)`` of every ``bp x bn`` block of ``C``
        (:func:`kernel_ready`) from :meth:`product_rows`; a product ``C``
        holds is read in place, before its block is stored.  ``Y`` holds the
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
            strip_args = (A12.ctypes.data, self._ld(A12),
                          B21.ctypes.data, self._ld(B21), A12.shape[1])
        ptrs, ldm = Mrows
        self.lib.form_C(self._f, ptrs, ldm, bp, bn, C.ctypes.data,
                        self._ld(C), None if Y is None else Y.ctypes.data,
                        *strip_args, i0, i1)

    def operand(self, side: str, rr: int, slab, X, rows: int, cols: int):
        """Rank ``rr``'s S (``side="s"``) or T operand: its slab row, or
        for an alias chain the block of ``X`` itself -- a row-strided view
        that ``np.matmul`` and a deeper level's kernels take as it is."""
        kind, idx = (self._s if side == "s" else self._t)["layout"][rr]
        if kind == "slot":
            return slab[idx].reshape(rows, cols)
        return block(X, idx, rows, cols)

    # ------------------------------------------------------------- driver
    def multiply(
        self,
        A: np.ndarray,
        B: np.ndarray,
        steps: int = 1,
        out: np.ndarray | None = None,
        workspace=None,
        threads: int = 1,
    ) -> np.ndarray:
        """``A @ B`` with ``steps`` recursion levels of the algorithm,
        each level's forms over ``threads`` row ranges (:meth:`step`).

        The kernels compute in their element type, which must be the
        call's :func:`kernel_dtype`: the ``float`` kernels take float32
        products, the ``double`` ones every other product and return
        ``np.result_type(A, B)`` (rounded once at the end, never a silent
        upcast).  Result dtypes double cannot hold exactly by kind
        (complex, extended precision) are rejected up front instead of
        being quietly narrowed.

        ``out`` receives the product (same contract as the
        interpreter: result dtype, writeable, non-overlapping).  With a
        ``workspace`` sized by
        :func:`repro.core.workspace.cbackend_footprint` every slab and
        product buffer comes from the arena; the
        returned array is never arena memory (an ``out`` of the kernels'
        dtype is written directly, any other result is a fresh cast).
        Only what the step cannot address in place (:func:`kernel_ready`
        with whole rows apart) is packed, once, on entry, into the same
        arena (the footprint charges another dtype's copies; for a strided
        matrix of the kernels' dtype the call reserves them itself).
        """
        A = np.asarray(A)
        B = np.asarray(B)
        check_matmul_dims(A, B)
        if out is not None:
            check_out(out, A, B)
        dtype = np.result_type(A, B)
        if (dtype.kind not in "fiub" or dtype.kind == "f" and dtype.itemsize
                > 8 or kernel_dtype(dtype) != self.dtype):
            raise ValueError(
                f"the {self.real} kernels cannot compute a {dtype} product: "
                f"float32 ones run the float kernels, other float64-"
                f"representable ones the double kernels, the rest the "
                f"interpreter")
        kernels = blas.matmul_kernels(self.real)
        if kernels is None:
            raise RuntimeError(
                "the vendor BLAS exports no cblas gemm for the step; "
                "chains_fused sends such a host to the interpreter")
        ws = workspace
        if ws is not None:
            ws.reset()
            # the caller sized the arena from the dtypes; a matrix of the
            # kernels' dtype whose strides they cannot walk is packed into a
            # copy the footprint has no term for, so the call reserves both
            # (a take costs its bytes plus up to two roundings)
            strided = [X for X in (A, B, out) if X is not None
                       and X.dtype == self.dtype
                       and not _step_ready(X, self.dtype)]
            if strided:
                ws.reserve(
                    cbackend_footprint(self.algorithm, self.cse,
                                       (*A.shape, B.shape[1]), A.dtype,
                                       steps, B.dtype)
                    + sum(X.nbytes + 2 * ALIGNMENT for X in strided))
        Ad, Bd = (X if _step_ready(X, self.dtype)
                  else _packed(X, ws, self.dtype) for X in (A, B))
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
        if out is not None and _step_ready(out, self.dtype):
            dest = out
        elif dtype == self.dtype and out is None:
            # the returned array must never be arena memory (the next
            # call resets the workspace), so it comes from the heap
            dest = np.empty((p, r), dtype=self.dtype)
        else:
            dest = _take(ws, (p, r), self.dtype)
        nbytes = self._carve_bytes(p, A.shape[1], r, steps)
        # + one cache line: the step aligns the region's start, which only
        # a heap region needs
        self.step(kernels, Ad, Bd, steps, dest,
                  _take(ws, (nbytes + ALIGNMENT,), np.uint8)
                  if nbytes else None, threads)
        if dest is out:
            return out
        if dtype.kind in "iub":
            np.rint(dest, out=dest)
        if out is not None:
            np.copyto(out, dest, casting="unsafe")
            return out
        return dest if dtype == self.dtype else dest.astype(dtype)

    __call__ = multiply

    def step(self, kernels, A, B, steps: int, C: np.ndarray, region,
             threads: int = 1) -> None:
        """Write ``A @ B`` into ``C`` with ``steps`` levels in one call of
        the library's ``fmm_step`` (all three addressable in place by it),
        which carves every level from the bytes of ``region`` and
        issues its products through ``kernels``
        (:func:`repro.parallel.blas.matmul_kernels`) on as many threads as
        the vendor's BLAS is set to.  At ``threads`` > 1 each level's
        ``form_S`` and ``form_T``, and its ``form_C`` without C-side
        definitions, run over that many row ranges on the team, this
        thread taking one: the same bits."""
        p, q = A.shape
        r = B.shape[1]
        w = None if region is None else region.ctypes.data
        if self.lib.fmm_step(self._f, kernels, steps, threads, A.ctypes.data,
                             self._ld(A),
                             B.ctypes.data, self._ld(B), C.ctypes.data,
                             self._ld(C), p, q, r, w,
                             None if w is None else w + region.nbytes):
            raise RuntimeError("compiled step outgrew its arena region")


#: descriptors on their library by what they were built from -- an
#: algorithm's name, base case and coefficients, the cse flag and the
#: element type -- so the catalog entries, and any transformed or ad hoc
#: algorithm handed to the schedules, are a dictionary hit after their
#: first use (``FastAlgorithm`` itself is unhashable: its factors are
#: arrays).  Guarded by ``_lib_lock``.
_CHAINS: dict[tuple, CompiledChains] = {}
_CHAINS_MAX = 64


def _scheme_key(alg: FastAlgorithm) -> tuple:
    return (alg.name, alg.base_case, alg.U.tobytes(), alg.V.tobytes(),
            alg.W.tobytes())


def compile_chains(
    algorithm: str | FastAlgorithm, cse: bool = False, dtype="float64"
) -> CompiledChains:
    """An algorithm's descriptor on the library over elements of
    ``dtype`` (float32 or float64), which is compiled (or found in the
    on-disk cache) at the first call of its element type."""
    real = _real_name(dtype)
    if real is None:
        raise ValueError(f"no chain kernels for {np.dtype(dtype)}")
    if not available():
        raise RuntimeError(
            "no working C compiler; the native chain backend is unavailable "
            "(set REPRO_CC or install gcc)"
        )
    if isinstance(algorithm, str):
        from repro.algorithms import get_algorithm

        algorithm = get_algorithm(algorithm)
    key = (algorithm.memo("_scheme_key", _scheme_key), cse, real)
    cc = _CHAINS.get(key)
    if cc is None:
        built = CompiledChains(algorithm, cse, real)    # may run the compiler
        with _lib_lock:
            cc = _CHAINS.setdefault(key, built)
            while len(_CHAINS) > _CHAINS_MAX:
                del _CHAINS[next(iter(_CHAINS))]
    return cc


#: algorithms already warned about in :func:`serving_chains`; the warning
#: fires once, the counter every time, a duplicate from two racing threads
#: is benign
_fallback_warned: set[str] = set()


def serving_chains(algorithm: str | FastAlgorithm, dtype="float64",
                   cse: bool = False) -> CompiledChains | None:
    """:func:`compile_chains` for a serving path that must not fail a
    multiply the interpreter could have served: a compile or load error
    (compiler uninstalled since tuning, cache dir yanked,
    ``cbackend.compilefail`` chaos) is counted in ``cbackend.fallbacks``,
    warned once per algorithm and answered with ``None``."""
    try:
        return compile_chains(algorithm, cse, dtype)
    except (OSError, RuntimeError) as exc:
        telemetry.incr("cbackend.fallbacks")
        name = getattr(algorithm, "name", algorithm)
        if name not in _fallback_warned:
            _fallback_warned.add(name)
            _log.warning(
                "compiled chain kernels unavailable for %r (%s); the "
                "interpreter serves it instead", name, exc)
        return None


def step_chains(algorithm: FastAlgorithm, scheme: str, A: np.ndarray,
                B: np.ndarray, out=None,
                cse: bool = False) -> CompiledChains | None:
    """The compiled step a ``scheme`` call on these operands runs, or
    ``None`` for the interpreter: :func:`chains_fused`, then
    :func:`serving_chains` (a compile that fails here is counted and
    warned, and the interpreter serves)."""
    if not chains_fused(A.dtype, B.dtype, scheme, (A, B, out)):
        return None
    return serving_chains(algorithm, kernel_dtype(A.dtype, B.dtype), cse)


def sequential_footprint(algorithm: FastAlgorithm, steps: int, p: int,
                         q: int, r: int, dtype_a, dtype_b=None,
                         fused: bool | None = None) -> int:
    """Arena bytes of :func:`multiply_sequential` (default: what
    :func:`chains_fused` says runs): the step's slabs
    (:func:`repro.core.workspace.cbackend_footprint`), or the
    interpreter's triple per level
    (:func:`repro.core.workspace.dfs_footprint`)."""
    dtype_b = dtype_a if dtype_b is None else dtype_b
    if fused is None:
        fused = chains_fused(dtype_a, dtype_b)
    if fused:
        return cbackend_footprint(algorithm, False, (p, q, r), dtype_a,
                                  steps, dtype_b)
    return dfs_footprint([algorithm.base_case] * steps, p, q, r, dtype_a,
                         dtype_b, algorithms=[algorithm] * steps)


def multiply_sequential(cc: CompiledChains | None, A: np.ndarray,
                        B: np.ndarray, algorithm: FastAlgorithm,
                        steps: int, out=None, workspace=None,
                        threads: int = 1) -> np.ndarray:
    """The sequential product -- and DFS, which is this under a
    ``T``-thread BLAS with its forms over ``threads`` row ranges: ``cc``'s
    step (:func:`step_chains`), or with ``None`` the interpreter, whose
    forms stay in this thread.  ``workspace`` is sized by
    :func:`sequential_footprint`; a caller that sized it for the step
    before the compile failed gets it re-reserved for the interpreter's
    layout (one S/T/M_r triple per level)."""
    if cc is not None:
        return cc.multiply(A, B, steps=steps, out=out, workspace=workspace,
                           threads=threads)
    if workspace is not None:
        workspace.reserve(sequential_footprint(
            algorithm, steps, A.shape[0], *B.shape, A.dtype, B.dtype,
            fused=False))
    return recursion.multiply(A, B, algorithm, steps=steps, out=out,
                              workspace=workspace)


def compile_algorithm(algorithm: FastAlgorithm, cse: bool = False):
    """``algorithm``'s sequential product as ``f(A, B, steps=1,
    out=None)``: what :func:`repro.tuner.dispatch.execute_plan` runs for
    a sequential plan (:func:`multiply_sequential` -- the step where
    :func:`chains_fused` holds, else the interpreter), its chains after
    common-subexpression elimination when ``cse`` (the interpreter has
    none).  The library is compiled at the first call of an element
    type, not here."""
    def multiply(A, B, steps: int = 1, out=None) -> np.ndarray:
        A, B = np.asarray(A), np.asarray(B)
        return multiply_sequential(
            step_chains(algorithm, "sequential", A, B, cse=cse), A, B,
            algorithm, steps, out)

    return multiply


def multiply(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: str | FastAlgorithm = "strassen",
    steps: int = 1,
    cse: bool = False,
) -> np.ndarray:
    """One-call native-chain fast multiply (compare with ``repro.multiply``),
    in the operands' :func:`kernel_dtype`."""
    A, B = np.asarray(A), np.asarray(B)
    return compile_chains(algorithm, cse, kernel_dtype(A.dtype, B.dtype)
                          ).multiply(A, B, steps=steps)
