"""Native (C) backend for the addition chains — the paper's actual codegen.

The paper's generator emits C++ so that each ``S_r``/``T_r``/``C_ij``
linear combination becomes one fused loop: every operand is read once and
the destination written once per pass, with no interpreter or temporary-
array overhead.  The Python strategies in :mod:`repro.codegen.strategies`
approximate that with NumPy ufuncs (one in-place pass *per operand pair*
for ``write_once``).  This module closes the gap: it emits real C for one
algorithm -- its chains and the whole sequential product around them --
compiles it with the system C compiler, and drives it through ``ctypes``:
a sequential product is one call, which forms the chains in genuine
single-pass kernels, calls the vendor gemm for every product, recurses
and peels, all in C (the paper's generated code calls dgemm from inside
its step the same way).

Generated interface per algorithm and element type ``real`` -- ``double``
or ``float``, one translation unit each, printed from the same chain
text (the paper's code is generated per scalar type too)::

    void form_S(const real *A, long lda, long bp, long bq, real *S,
                long i0, long i1);
    void form_T(const real *B, long ldb, long bp, long bq, real *T,
                long i0, long i1);
    void form_C(const real **M, long bp, long bq,
                real *C, long ldc, real *Y,
                const real *A12, long lda, const real *B21, long ldb,
                long dq, long i0, long i1);
    int fmm_step(const blas_t *x, long steps, const real *A, long lda,
                 const real *B, long ldb, real *C, long ldc,
                 long p, long q, long r, char *w, char *end);

``form_S``/``form_T`` read the m·k (k·n) sub-blocks of the parent operand
in place (row stride ``lda``, in elements) and write CSE definitions plus
all non-alias chains into a contiguous slab; alias chains (single-nonzero
columns after scalar piping) are never formed -- their products read the
parent's block in place, the paper's "no temporary is formed" rule.
``form_C`` assembles the output blocks from an array of product-row
pointers in one fused pass per block; ``Y`` is caller-provided scratch
for C-side CSE definitions.  Where dynamic peeling (Section
3.5) stripped ``dq`` columns off the inner dimension, ``form_C`` also adds
their contribution -- ``C[i, :] += A12[i, t] * B21[t, :]``, ``t = 0 ..
dq-1`` -- to each block row right after storing it, while the row is in
L1: the strip gets no pass over ``C`` of its own and no buffer
(``dq = 0``: nothing peeled, the pointers may be NULL).  Every kernel
works on the rows ``[i0, i1)`` of its blocks and touches no other row (the
``cemit`` analyzer proves it from the emitted text), so one sweep can be
cut into ranges that run concurrently: the step passes the whole range,
the BFS and HYBRID schedules (:mod:`repro.parallel.schedules`) fan the
ranges of the levels they form themselves out over their worker pool and
run every child product below them as one ``fmm_step`` call -- whenever
:func:`chains_fused` says the operands allow it.

``fmm_step`` is the sequential product, ``steps`` levels deep: it splits
where :func:`repro.core.recursion.should_split` does (else it is one
vendor product), carves the level's S, T, product and ``Y`` rows from the
arena region ``[w, end)`` in :func:`repro.core.workspace.
cbackend_footprint`'s order and rounding, runs ``form_S`` and ``form_T``,
computes each rank's product into its :func:`product_homes` home by a
call to itself, runs ``form_C`` with the inner strip, and adds the right
and bottom peel strips.  ``x`` holds the vendor's cblas ``gemm``, ``gemv``
and ``dot`` (:func:`repro.parallel.blas.matmul_kernels`, passed as
function pointers: no link-time dependency); every product is issued as
``np.matmul`` would issue it, so the step agrees with the NumPy
executors bit for bit.  It returns -1, having written nothing past
``end``, when the region is too small.  Where the probe finds no cblas,
the sequential product runs the Python driver instead, with the same
bits.

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
(``RuntimeError``), never silently, when no compiler exists.  Serving is
a rule, :func:`chains_fused`, not a plan dimension: every sequential
fast plan (:func:`repro.tuner.dispatch.execute_plan`) and every parallel
schedule asks it, goes through :func:`serving_chains` -- which counts and
warns instead of raising -- and falls back to the interpreter, so a
compile failure never fails a multiply.

A call computes at its product's precision: float32 in the ``float``
kernels, everything else in the ``double`` ones, returning
``np.result_type(A, B)`` (rounded once on exit).  Result dtypes double
cannot represent by kind -- complex, extended-precision floats -- are
rejected with ``ValueError``.  :meth:`CompiledChains.multiply` accepts
``out=``/``workspace=`` like the interpreter: with a workspace sized by
:func:`repro.core.workspace.cbackend_footprint` the warm path allocates
nothing from the heap (peeling needs no buffer at all).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import re
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
from repro.core.recursion import should_split
from repro.core.stability import stability_factors
from repro.core.workspace import (ALIGNMENT, cbackend_carve_bytes,
                                  cbackend_footprint, check_out,
                                  dfs_footprint, level_elements)
from repro.obs import telemetry
from repro.parallel import blas
from repro.util.matrices import peel_fixup, peel_split
from repro.util.validation import check_matmul_dims

_CC = os.environ.get("REPRO_CC", "cc")
#: ``-ffp-contract=off``: a fused multiply-add rounds once where NumPy
#: rounds twice, and the bit-for-bit agreement with the NumPy executors
#: must not rest on gcc's ISO-mode default
_COMMON_FLAGS = ["-march=native", "-std=c99", "-ffp-contract=off", "-fPIC",
                 "-shared"]
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
#: the element types the printer instantiates: C name -> NumPy dtype
REALS = {"double": np.dtype(np.float64), "float": np.dtype(np.float32)}


def _coeff_term(coeff: float, expr: str, real: str) -> str:
    if coeff == 1.0:
        return f"+ {expr}"
    if coeff == -1.0:
        return f"- {expr}"
    # a float unit's literals are floats: a bare 0.5 would widen the chain
    return f"+ {coeff!r}{'f' if real == 'float' else ''} * {expr}"


def _rhs(terms, real: str) -> str:
    parts = [_coeff_term(t.coeff, f"p{t.source}[j]", real) for t in terms]
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


def _store_loop(ch: Chain, real: str) -> list[str]:
    """One fused pass: the chain's target row from its source rows."""
    return ["    NODEP",
            "    for (long j = 0; j < bq; ++j)",
            f"      p{ch.target}[j] = {_rhs(ch.terms, real)};"]


def _emit_side(fn: str, side: dict, blocks_cols: int, prefix: str,
               real: str) -> list[str]:
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
        f"void {fn}(const {real} *X, long ldx, long bp, long bq, {real} *S,"
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
                f"    const {real} *p{s} = X + ((size_t)({br}*bp + i))*ldx"
                f" + (size_t)({bc})*bq;"
            )
        # Y sources resolve to slab pointers declared below
    for ch in body:
        lines.append(
            f"    {real} *p{ch.target} = S + {slot_of[ch.target]}*blk"
            f" + (size_t)i*bq;"
        )
    for ch in body:
        lines += _store_loop(ch, real)
    lines += ["  }", "}"]
    return lines


def _emit_output(side: dict, m: int, n: int, real: str) -> list[str]:
    """Emit ``form_C``; products come in as row-pointer array ``M``.  Each
    row of each block takes the peeled inner-dimension strip right after
    it is stored: ``dq`` rank-one terms, in order, no pass of their own."""
    defs, chains = side["defs"], side["chains"]
    lines = [
        f"void form_C(const {real} **M, long bp, long bq,"
        f" {real} *C, long ldc, {real} *Y,"
        f" const {real} *A12, long lda, const {real} *B21, long ldb, long dq,"
        " long i0, long i1)",
        "{",
        "  (void)Y;" if not defs else "",
        "  for (long i = i0; i < i1; ++i) {",
    ]
    for s in _referenced_sources(list(defs) + list(chains)):
        if s.startswith("M"):
            lines.append(
                f"    const {real} *p{s} = M[{int(s[1:])}] + (size_t)i*bq;"
            )
    for d_i, d in enumerate(defs):
        lines.append(f"    {real} *p{d.target} = Y + {d_i}*bq;")
    blocks = [divmod(int(ch.target[1:]), n) for ch in chains]
    for ch, (bi, bj) in zip(chains, blocks):
        lines.append(
            f"    {real} *p{ch.target} = C + ((size_t)({bi}*bp + i))*ldc"
            f" + (size_t)({bj})*bq;"
        )
    for d in defs:
        lines += _store_loop(d, real)
    for ch, (bi, bj) in zip(chains, blocks):
        lines += _store_loop(ch, real)
        lines += [
            "    for (long t = 0; t < dq; ++t) {",
            f"      const {real} a = A12[((size_t)({bi}*bp + i))*lda + t];",
            f"      const {real} *b = B21 + (size_t)t*ldb + (size_t)({bj})*bq;",
            "      NODEP",
            "      for (long j = 0; j < bq; ++j)",
            f"        p{ch.target}[j] += a * b[j];",
            "    }",
        ]
    lines += ["  }", "}"]
    return [ln for ln in lines if ln != ""]


#: the sequential product, fixed text over ``real`` around the ``@``-lines
#: :func:`_emit_step` fills in (module docstring).  ``mm`` issues one
#: product as ``np.matmul`` does; ``carve`` takes a level's rows as the
#: arena's ``take`` would.  No line is ``"  }"``, which closes a row loop.
#: The step's own code runs a few statements a level: unoptimised, it adds
#: almost nothing to a unit's compile time (``-O2`` would add 40 %).
_STEP_FRAME = """\
typedef struct {
    void (*gemm)(int, int, int, long, long, long, real, const real *, long, const real *, long, real, real *, long);
    void (*gemv)(int, int, long, long, real, const real *, long, const real *, long, real, real *, long);
    real (*dot)(long, const real *, long, const real *, long);
} blas_t;

#pragma GCC optimize("O0")

static void mm(const blas_t *x, long M, long N, long K, const real *A, long lda, const real *B, long ldb, real *C, long ldc)
{
    if (M == 0 || N == 0)
        return;
    if (M == 1 && N == 1)
        C[0] = (real)(0.0 + x->dot(K, A, 1, B, ldb));
    else if (K <= 1)
        for (long i = 0; i < M; ++i)
            for (long j = 0; j < N; ++j)
                C[i * ldc + j] = K ? (real)0 + A[i * lda] * B[j] : (real)0;
    else if (M == 1)
        x->gemv(101, 112, K, N, 1, B, ldb, A, 1, 0, C, 1);
    else if (N == 1)
        x->gemv(102, 112, K, M, 1, A, lda, B, ldb, 0, C, ldc);
    else
        x->gemm(101, 111, 111, M, N, K, 1, A, lda, B, ldb, 0, C, ldc);
}

static real *carve(char **w, char *end, size_t n)
{
    char *p = n ? (char *)(((size_t)*w + 63) & ~(size_t)63) : *w;
    if (p > end || (size_t)(end - p) < n * sizeof(real))
        return NULL;
    *w = p + n * sizeof(real);
    return (real *)p;
}

@PARAMS
static const short HOME[4][RANK][2] = {
@HOMES
};

int fmm_step(const blas_t *x, long steps, const real *A, long lda, const real *B, long ldb, real *C, long ldc, long p, long q, long r, char *w, char *end)
{
    if (steps <= 0 || p / BM < 2 || q / BK < 2 || r / BN < 2) {
        mm(x, p, r, q, A, lda, B, ldb, C, ldc);
        return 0;
    }
    const long bp = p / BM, bq = q / BK, bn = r / BN;
    const size_t sblk = (size_t)bp * bq, tblk = (size_t)bq * bn, pblk = (size_t)bp * bn;
    const int v = (bn <= bq) + 2 * (bp <= bq);
    long own = 0;
    for (int i = 0; i < RANK; ++i)
        own += HOME[v][i][0] == 2;
    real *S = carve(&w, end, S_ROWS * sblk), *T = carve(&w, end, T_ROWS * tblk);
    real *P = carve(&w, end, own * pblk), *Y = carve(&w, end, Y_ROWS * (size_t)bn);
    if (!S || !T || !P || !Y)
        return -1;
    real *const slab[3] = {S, T, P};
    const size_t blk[3] = {sblk, tblk, pblk};
    real *H[RANK];
    for (int i = 0; i < RANK; ++i)
        H[i] = slab[HOME[v][i][0]] + HOME[v][i][1] * blk[HOME[v][i][0]];
    form_S(A, lda, bp, bq, S, 0, bp);
    form_T(B, ldb, bq, bn, T, 0, bq);
@RANKS
    form_C((const real **)H, bp, bn, C, ldc, Y, A + BK * bq, lda, B + (size_t)(BK * bq) * ldb, ldb, q - BK * bq, 0, bp);
    if (BN * bn < r)
        mm(x, BM * bp, r - BN * bn, q, A, lda, B + BN * bn, ldb, C + BN * bn, ldc);
    if (BM * bp < p)
        mm(x, p - BM * bp, r, q, A + (size_t)(BM * bp) * lda, lda, B, ldb, C + (size_t)(BM * bp) * ldc, ldc);
    return 0;
}
"""


def step_frame(real: str) -> list[str]:
    """:data:`_STEP_FRAME`'s lines over C type ``real``."""
    return re.sub(r"\breal\b", real, _STEP_FRAME).splitlines()


def _operand(layout, X: str, rows: str, cols: str, ld: str, blocks_cols: int,
             slab: str) -> str:
    """A rank's S (T) operand and its row stride: its slab row, or the
    block of ``X`` an alias chain stands for."""
    kind, idx = layout
    if kind == "slot":
        return f"{slab} + {idx} * {slab.lower()}blk, {cols}"
    bi, bj = divmod(idx, blocks_cols)
    return f"{X} + (size_t)({bi} * {rows}) * {ld} + {bj} * {cols}, {ld}"


def _emit_step(s: dict, t: dict, c: dict, algorithm: FastAlgorithm,
               real: str) -> list[str]:
    """The frame with this algorithm's constants, its :func:`product_homes`
    per shape variant ``v`` = ``bn <= bq`` + 2 ``bp <= bq`` as ``{slab,
    row}`` (S, T, own rows: 0, 1, 2) and one product call per rank."""
    m, k, n = algorithm.base_case
    code = {"s": 0, "t": 1, "m": 2}
    homes = ["    {%s}," % ", ".join(
        f"{{{code[kind]}, {row}}}" for kind, row in product_homes(
            s["layout"], t["layout"], 1 if v & 2 else 3, 2,
            1 if v & 1 else 3)[0]) for v in range(4)]
    ranks = [f"    if (fmm_step(x, steps - 1,"
             f" {_operand(s['layout'][rr], 'A', 'bp', 'bq', 'lda', k, 'S')},"
             f" {_operand(t['layout'][rr], 'B', 'bq', 'bn', 'ldb', n, 'T')},"
             f" H[{rr}], bn, bp, bq, bn, w, end)) return -1;"
             for rr in range(algorithm.rank)]
    params = [f"enum {{ BM = {m}, BK = {k}, BN = {n}, RANK = {algorithm.rank},"
              f" S_ROWS = {max(s['slots'], 1)}, T_ROWS = {max(t['slots'], 1)},"
              f" Y_ROWS = {len(c['defs'])} }};"]
    parts = {"@PARAMS": params, "@HOMES": homes, "@RANKS": ranks}
    return [ln for line in step_frame(real) for ln in parts.get(line, [line])]


def generate_c_source(algorithm: FastAlgorithm, cse: bool = False,
                      real: str = "double") -> str:
    """Return the complete C translation unit for ``algorithm``'s chains
    over elements of C type ``real`` (a key of :data:`REALS`)."""
    if real not in REALS:
        raise ValueError(f"real must be one of {tuple(REALS)}, got {real!r}")
    s, t, c = _prepare(algorithm, cse)
    m, k, n = algorithm.base_case
    lines = [
        "/* Auto-generated by repro.codegen.cbackend; do not edit.",
        f" * algorithm {algorithm.name} <{m},{k},{n}> rank {algorithm.rank},"
        f" cse={cse}, real={real}",
        f" * slab rows: S={s['slots']} T={t['slots']}"
        f" (defs first: {len(s['defs'])}/{len(t['defs'])}),"
        f" C scratch rows: {len(c['defs'])}",
        " */",
        "#include <stddef.h>",
        *_NODEP_MACRO,
        "",
    ]
    lines += _emit_side("form_S", s, k, "A", real)
    lines.append("")
    lines += _emit_side("form_T", t, n, "B", real)
    lines.append("")
    lines += _emit_output(c, m, n, real)
    lines.append("")
    lines += _emit_step(s, t, c, algorithm, real)
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
IN_PLACE_SCHEMES = ("bfs", "hybrid", "hybrid-subgroup")


def chains_fused(dtype_a, dtype_b=None, scheme: str = "sequential",
                 operands=()) -> bool:
    """Does a ``scheme`` call on these operands run the compiled step?

    The one rule every executor runs by and ``plan_footprint`` and
    ``plan_cost`` size and price by: two float operands whose product is
    float32 (the ``float`` kernels) or float64 (the ``double`` ones), and
    a compiler.  That is all the sequential driver needs -- DFS is that
    driver at ``T``-thread BLAS -- because it packs what the step cannot
    address (a mixed pair into double, a strided matrix into a copy) and
    runs its Python driver where the vendor's cblas was not found.  The
    BFS/HYBRID tree (:data:`IN_PLACE_SCHEMES`) hands the caller's
    operands to many ``fmm_step`` calls as they are, so it also needs one
    dtype on both sides, ``operands`` the step can address in place
    (:func:`kernel_ready`, rows at least a row apart as the vendor's gemm
    takes a matrix; ``None`` for an absent ``out``) and the vendor's
    cblas.  Everything else runs the interpreter.
    """
    a = np.dtype(dtype_a)
    b = a if dtype_b is None else np.dtype(dtype_b)
    real = np.result_type(a, b)
    if not (a.kind == b.kind == "f" and real in REALS.values()
            and available()):
        return False
    if scheme not in IN_PLACE_SCHEMES:
        return True
    return (a == b and all(X is None or _step_ready(X, real)
                           for X in operands)
            and blas.matmul_kernels(_real_name(real)) is not None)


def _real_name(dtype) -> str | None:
    """The C type of :data:`REALS` holding ``dtype`` (``None``: none)."""
    return next((name for name, dt in REALS.items()
                 if dt == np.dtype(dtype)), None)


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


class CompiledChains:
    """Compiled chain kernels and step for one algorithm and element type
    ``real``.

    :meth:`multiply` is :func:`repro.core.recursion.multiply` -- dynamic
    peeling, leaf dgemm -- in one call of the emitted ``fmm_step``, every
    S/T/C linear combination formed by the fused single-pass C kernels.
    Each kernel works on a row range
    ``[i0, i1)`` of its blocks and touches nothing outside those rows, so
    ranges may run concurrently (ctypes releases the GIL) and re-running
    one recomputes it from its inputs: :meth:`form_S`, :meth:`form_T` and
    :meth:`form_C` are what the parallel schedules fan out, and
    :meth:`step` is what their tasks run.

    Whoever calls the kernels keeps their no-overlap contract (module
    docstring): slab, product, ``Y`` and destination buffers are distinct
    allocations that overlap neither each other nor the operands.  The
    loops are compiled on that promise.
    """

    def __init__(self, algorithm: FastAlgorithm, cse: bool = False,
                 real: str = "double"):
        self.algorithm = algorithm
        self.cse = cse
        self.source = generate_c_source(algorithm, cse=cse, real=real)
        self.real, self.dtype = real, REALS[real]
        self._s, self._t, self._c = _prepare(algorithm, cse)
        self.lib = _compile_source(self.source)
        ptr, lng = ctypes.c_void_p, ctypes.c_long
        for fn in (self.lib.form_S, self.lib.form_T):
            fn.restype = None
            fn.argtypes = [ptr, lng, lng, lng, ptr, lng, lng]
        self.lib.form_C.restype = None
        self.lib.form_C.argtypes = [ctypes.POINTER(ptr), lng, lng, ptr, lng,
                                    ptr, ptr, lng, ptr, lng, lng, lng, lng]
        self.lib.fmm_step.restype = ctypes.c_int
        self.lib.fmm_step.argtypes = [ptr, lng, ptr, lng, ptr, lng, ptr, lng,
                                      lng, lng, lng, ptr, ptr]
        #: arena bytes of the step's carve, per (shape, steps)
        self._carve_bytes = functools.lru_cache(maxsize=256)(
            functools.partial(cbackend_carve_bytes, algorithm, cse,
                              self.dtype))

    # ------------------------------------------------------------ kernels
    def slab_rows(self) -> tuple[int, int, int]:
        """Rows of the S slab, of the T slab (definitions + non-alias
        chains; never empty) and of ``form_C``'s ``Y`` scratch."""
        s_rows, t_rows, _, y_rows = level_elements(
            self.algorithm, self.cse, (1, 1, 1), 0)
        return s_rows, t_rows, y_rows

    def _ld(self, X) -> int:
        """``X``'s row stride in elements, as the kernels take it."""
        return X.strides[0] // self.dtype.itemsize

    def form_S(self, A, bp: int, bq: int, slab, i0: int, i1: int) -> None:
        """Rows ``[i0, i1)`` of every S chain over the ``bp x bq`` blocks
        of ``A`` (:func:`kernel_ready`) into ``slab``."""
        self.lib.form_S(A.ctypes.data, self._ld(A), bp, bq,
                        slab.ctypes.data, i0, i1)

    def form_T(self, B, bq: int, bn: int, slab, i0: int, i1: int) -> None:
        self.lib.form_T(B.ctypes.data, self._ld(B), bq, bn,
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
            strip_args = (A12.ctypes.data, self._ld(A12),
                          B21.ctypes.data, self._ld(B21), A12.shape[1])
        self.lib.form_C(Mrows, bp, bn, C.ctypes.data, self._ld(C),
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

        The kernels compute in their element type, which must be the
        call's :func:`kernel_dtype`: the ``float`` kernels take float32
        products, the ``double`` ones every other product and return
        ``np.result_type(A, B)`` (rounded once at the end, never a silent
        upcast).  Result dtypes double cannot hold exactly by kind
        (complex, extended precision) are rejected up front with a pointer
        at the python backends instead of being quietly narrowed.

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
        kernels = blas.matmul_kernels(self.real)
        if kernels is None:
            self._recurse(Ad, Bd, steps, dest, ws)
        else:
            nbytes = self._carve_bytes(p, A.shape[1], r, steps)
            # + one cache line: the step aligns the region's start, which
            # only a heap region needs
            self.step(kernels, Ad, Bd, steps, dest,
                      _take(ws, (nbytes + ALIGNMENT,), np.uint8)
                      if nbytes else None)
        if dest is out:
            return out
        if dtype.kind in "iub":
            np.rint(dest, out=dest)
        if out is not None:
            np.copyto(out, dest, casting="unsafe")
            return out
        return dest if dtype == self.dtype else dest.astype(dtype)

    __call__ = multiply

    def step(self, kernels, A, B, steps: int, C: np.ndarray, region) -> None:
        """Write ``A @ B`` into ``C`` with ``steps`` levels in one call of
        the emitted ``fmm_step`` (all three addressable in place by it),
        which carves every level from the bytes of ``region`` and
        issues its products through ``kernels``
        (:func:`repro.parallel.blas.matmul_kernels`) on as many threads as
        the vendor's BLAS is set to."""
        p, q = A.shape
        r = B.shape[1]
        w = None if region is None else region.ctypes.data
        if self.lib.fmm_step(kernels, steps, A.ctypes.data, self._ld(A),
                             B.ctypes.data, self._ld(B), C.ctypes.data,
                             self._ld(C), p, q, r, w,
                             None if w is None else w + region.nbytes):
            raise RuntimeError("compiled step outgrew its arena region")

    def _recurse(self, A, B, steps: int, C: np.ndarray, ws) -> None:
        """The step in Python, where the vendor's cblas was not found:
        write ``A @ B`` into ``C`` with ``steps`` levels (all three
        ``kernel_ready``)."""
        p, q = A.shape
        r = B.shape[1]
        m, k, n = self.algorithm.base_case
        if not should_split(steps, p, q, r, m, k, n):
            np.matmul(A, B, out=C)
            return
        A11, A12 = peel_split(A, m, k)[:2]
        B11, _, B21, _ = peel_split(B, k, n)
        self._core(A11, B11, C[:A11.shape[0], :B11.shape[1]], steps, ws,
                   (A12, B21))
        peel_fixup(C, A, B, (m, k, n), np.matmul, strip=False)

    def _core(self, A, B, Cout, steps, ws, strip) -> None:
        """One level on an evenly divisible core; writes into ``Cout``,
        the peeled inner ``strip`` ``(A12, B21)`` included."""
        m, k, n = self.algorithm.base_case
        R = self.algorithm.rank
        p, q = A.shape
        r = B.shape[1]
        bp, bq, bn = p // m, q // k, r // n
        s_rows, t_rows, y_rows = self.slab_rows()

        mark = ws.mark() if ws is not None else None
        Sslab = _take(ws, (s_rows, bp * bq), self.dtype)
        Tslab = _take(ws, (t_rows, bq * bn), self.dtype)
        self.form_S(A, bp, bq, Sslab, 0, bp)
        self.form_T(B, bq, bn, Tslab, 0, bq)

        # depth first, a product may overwrite a chain an earlier rank
        # consumed (product_homes); only the rest get rows of their own.
        # A deeper recursion level writes its result straight into them.
        homes, own = product_homes(self._s["layout"], self._t["layout"],
                                   bp, bq, bn)
        slabs = {"s": Sslab, "t": Tslab,
                 "m": _take(ws, (own, bp * bn), self.dtype)}
        products = [slabs[kind][row][:bp * bn] for kind, row in homes]
        for rr in range(R):
            self._recurse(self.operand("s", rr, Sslab, A, bp, bq),
                          self.operand("t", rr, Tslab, B, bq, bn),
                          steps - 1, products[rr].reshape(bp, bn), ws)

        Y = _take(ws, (y_rows * bn,), self.dtype) if y_rows else None
        self.form_C(self.product_rows(products), bp, bn, Cout, Y, 0, bp,
                    strip=strip)
        if ws is not None:
            ws.release(mark)


#: compiled kernels by what was emitted for them -- an algorithm's name,
#: base case and coefficients, the cse flag and the element type -- so the
#: catalog entries,
#: and any transformed or ad hoc algorithm handed to the schedules, are a
#: dictionary hit after their first use (``FastAlgorithm`` itself is
#: unhashable: its factors are arrays).  Guarded by ``_lib_lock``.
_CHAINS: dict[tuple, CompiledChains] = {}
_CHAINS_MAX = 64


def _emitted_key(alg: FastAlgorithm) -> tuple:
    return (alg.name, alg.base_case, alg.U.tobytes(), alg.V.tobytes(),
            alg.W.tobytes())


def compile_chains(
    algorithm: str | FastAlgorithm, cse: bool = False, dtype="float64"
) -> CompiledChains:
    """Compile (or fetch from cache) the C chain kernels for an algorithm,
    over elements of ``dtype`` (float32 or float64)."""
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
    key = (algorithm.memo("_emitted_key", _emitted_key), cse, real)
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


def serving_chains(algorithm: str | FastAlgorithm,
                   dtype="float64") -> CompiledChains | None:
    """:func:`compile_chains` for a serving path that must not fail a
    multiply the interpreter could have served: a compile or load error
    (compiler uninstalled since tuning, cache dir yanked,
    ``cbackend.compilefail`` chaos) is counted in ``cbackend.fallbacks``,
    warned once per algorithm and answered with ``None``."""
    try:
        return compile_chains(algorithm, dtype=dtype)
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
                B: np.ndarray, out=None) -> CompiledChains | None:
    """The compiled step a ``scheme`` call on these operands runs, or
    ``None`` for the interpreter: :func:`chains_fused`, then
    :func:`serving_chains` (a compile that fails here is counted and
    warned, and the interpreter serves)."""
    if not chains_fused(A.dtype, B.dtype, scheme, (A, B, out)):
        return None
    return serving_chains(algorithm, kernel_dtype(A.dtype, B.dtype))


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
                        steps: int, out=None, workspace=None) -> np.ndarray:
    """The sequential product -- and DFS, which is this under a
    ``T``-thread BLAS: ``cc``'s step (:func:`step_chains`), or with
    ``None`` the interpreter.  ``workspace`` is sized by
    :func:`sequential_footprint`; a caller that sized it for the step
    before the compile failed gets it re-reserved for the interpreter's
    layout (one S/T/M_r triple per level)."""
    if cc is not None:
        return cc.multiply(A, B, steps=steps, out=out, workspace=workspace)
    if workspace is not None:
        workspace.reserve(sequential_footprint(
            algorithm, steps, A.shape[0], *B.shape, A.dtype, B.dtype,
            fused=False))
    return recursion.multiply(A, B, algorithm, steps=steps, out=out,
                              workspace=workspace)


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
