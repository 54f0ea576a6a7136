"""C descriptor verifier: prove each algorithm's descriptor computes its scheme.

The C backend (:mod:`repro.codegen.cbackend`) runs every algorithm on one
fixed library, ``fmm.c``, driven by the algorithm's
:class:`~repro.codegen.cbackend.Descriptor`: flat arrays of S, T and C
chain programs, coefficients, rank operands and product homes that C
reads in place.  A flipped coefficient or a swapped operand there would
otherwise only surface as a numeric test failure.  This pass reads the
arrays the library reads, walks each side's
program as ``form_S``/``form_T``/``form_C`` walk it -- definitions first,
every source resolved to its coefficient vector over the input blocks
(over the rank's products, for C) -- takes each rank's S and T operand
from the operand table (a slab row, or for an alias chain the parent's
block itself), and compares the recovered bilinear tensor

    sum_r  U_hat[:, r] x V_hat[:, r] x W_hat[:, r]

coefficient-by-coefficient against the catalog ``[U, V, W]`` scheme (to
the rounding of the coefficients into the element type).  No compiler is
involved: building a descriptor is pure NumPy, so the pass runs (and
proves) on hosts with no C toolchain at all.

The library marks every pass loop dependence-free (``NODEP``), which the
compiler takes on trust.  The pass proves the descriptor's half of it: no
chain's target is one of its own sources (the library's adding passes
read their target at the ``j`` they write; that buffers passed as
different arguments do not overlap is the caller's half,
:class:`repro.codegen.cbackend.CompiledChains`) -- save one alias: a
product that lives in a block of C (a home of kind 3) is read by that
block's chain in the first pass, which stores the block at the ``j`` it
reads, and by no later chain.  That each kernel touches
only the rows ``[i0, i1)`` it is given is a property of the fixed library,
not of a descriptor: ``tests/test_cstep.py`` pins it with sentinel rows.

Finding codes:
``CEMIT-LAYOUT`` (base case, rank or row counts differ from ``_prepare``'s
layout; a program that ends early or runs on, an index outside its side,
coefficients not of the element type or not one per term, a row read
before any chain writes it, an output block stored never or twice; the
descriptor's fields drift from :data:`EMISSION_CONTRACT`, or the
library's pass width from ``cbackend.PASS_TERMS``),
``CEMIT-ALIAS`` (a chain's target is also one of its sources -- save a
product the target's block holds, read in the pass that stores it),
``CEMIT-RANK`` (``form_C`` does not consume exactly the rank's products,
or an operand or home table is not one entry per rank),
``CEMIT-GEMM`` (a rank's operand is neither a slab row its side writes
nor a block; in one of the four shape variants the homes are not
distinct homes that fit, own rows numbered from 0 up, no slab row read
by its rank or a later one; a block of C holds a product its chain does
not read in its first pass, that a later chain reads, or two products;
a vendor call of the library scales by other than ``alpha = 1``,
``beta = 0``),
``CEMIT-TENSOR`` (the recovered bilinear form differs from the scheme).
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from repro.analyze.base import Finding

#: relative tolerance of the tensor comparison for ``double`` descriptors;
#: a ``float`` one is held to a few of its own roundings
TENSOR_RTOL = 1e-8

#: vendor calls of the library: name -> positions of alpha and beta
_RE_VENDOR = re.compile(r"x->(gemm|gemv)\((.*)\);")
_SCALARS = {"gemm": (6, 11), "gemv": (4, 9)}
#: the library's pass width
_RE_PASS = re.compile(r"enum \{ W = (\d+) \};")

#: the fields of the descriptor (``repro.codegen.cbackend.Descriptor``)
#: through which the one C library runs every algorithm's
#: form_S/form_T/form_C and its one-call step (``fmm_step``).  This pass
#: reads exactly these arrays, as the library reads them, back into
#: coefficient tables, operands and product homes, and fails when the
#: descriptor's fields drift from this list.
EMISSION_CONTRACT = (
    "base_case", "rank", "rows", "programs", "coefficients", "operands",
    "homes",
)


def _walk(desc, side: int, sizes: tuple[int, int, int], dtype, loc: str,
          findings: list[Finding]):
    """One side's program evaluated as the library runs it: ``(rows,
    outputs, read)`` -- per scratch row and per output block its
    coefficient vector over the side's sources ``>= 0`` and the vector's
    magnitude (the same sums over ``|coeff|``), and the sources ``>= 0``
    read -- or ``None`` with findings.  ``sizes`` bounds the side's
    sources ``>= 0``, rows and targets ``>= 0``."""
    def fail(code, msg):
        findings.append(Finding("cemit", code, loc, msg))

    prog, coef = desc.programs[side], desc.coefficients[side]
    if coef.dtype != dtype:
        return fail("CEMIT-LAYOUT", f"coefficients are {coef.dtype}, the"
                                    f" element type is {dtype}")
    pos, terms, chains = 1, 0, 0
    while pos + 1 < len(prog) and chains < prog[0] and prog[pos + 1] >= 0:
        terms += int(prog[pos + 1])
        pos += 2 + int(prog[pos + 1])
        chains += 1
    if not len(prog) or chains != prog[0] or pos != len(prog) or (
            terms != len(coef)):
        return fail("CEMIT-LAYOUT", f"program of {len(prog)} entries and"
                                    f" {len(coef)} coefficients is not"
                                    f" {prog[:1]} chains, one per term")
    nin, nrows, nout = sizes
    rows: dict[int, np.ndarray] = {}
    outputs: dict[int, np.ndarray] = {}
    read: set[int] = set()
    for target, chain in desc.chains(side):
        sources = [src for _, src in chain]
        bad = [i for i in sources if not (~i < nrows if i < 0 else i < nin)]
        if not (~target < nrows if target < 0 else target < nout) or bad:
            return fail("CEMIT-LAYOUT", f"chain {target} <- {sources}"
                                        f" indexes outside its side: {bad}")
        if target < 0 and target in sources:     # i >= 0: C block, product
            return fail("CEMIT-ALIAS", f"chain {target} reads its own target:"
                                       " NODEP asserts no iteration reads"
                                       " what another writes")
        vec = np.zeros((2, nin))
        for coeff, src in chain:
            scale = np.array([[coeff], [abs(coeff)]])
            if src >= 0:
                vec[:, src] += scale[:, 0]
                read.add(src)
            elif ~src in rows:
                vec = vec + scale * rows[~src]
            else:
                return fail("CEMIT-LAYOUT", f"chain {target} reads row {~src}"
                                            " before any chain writes it")
        if target < 0:
            rows[~target] = vec
        elif target in outputs:
            return fail("CEMIT-LAYOUT", f"output block {target} stored twice")
        else:
            outputs[target] = vec
    return rows, outputs, read


def _operands(desc, side: int, rows: dict, nblocks: int, loc: str,
              findings: list[Finding]) -> np.ndarray | None:
    """Per rank, the coefficient vector (and its magnitude) its side's
    operand stands for: the slab row the program wrote, or the block an
    alias reads."""
    mat = np.zeros((2, nblocks, desc.rank))
    for r, i in enumerate(desc.operands[:, side]):
        if i < 0 and ~i in rows:
            mat[:, :, r] = rows[~i]
        elif 0 <= i < nblocks:
            mat[:, i, r] = 1.0
        else:
            findings.append(Finding(
                "cemit", "CEMIT-GEMM", loc,
                f"rank {r} reads operand {i}: neither a slab row the"
                f" program writes nor one of {nblocks} blocks"))
            return None
    return mat


def _check_c_homes(chains: list, homes: list[tuple], v: int) -> list[tuple]:
    """``(code, message)`` per C home (kind 3) of one shape variant that
    is unsound: its block's chain (of the C side's ``chains``) must read
    the product in its first pass -- which stores the block at the ``j``
    it reads -- and never in a later one (that alias, to a target already
    stored, is ``CEMIT-ALIAS``); no chain after it may read the product,
    and no block may hold two."""
    from repro.codegen.cbackend import PASS_TERMS

    program = [[src for _, src in terms] for _, terms in chains]
    stores = {tgt: i for i, (tgt, _) in enumerate(chains) if tgt >= 0}
    bad, held = [], {}
    for r, (kind, b) in enumerate(homes):
        if kind != 3 or b not in stores:
            continue
        if b in held:
            bad.append(("CEMIT-GEMM", f"shape variant {v}: block {b} holds"
                        f" products {held[b]} and {r}"))
        held[b] = r
        pos = stores[b]
        if r not in program[pos][:PASS_TERMS]:
            bad.append(("CEMIT-GEMM", f"shape variant {v}: block {b} holds"
                        f" M{r}, which its chain does not read in its first"
                        " pass"))
        if r in program[pos][PASS_TERMS:]:
            bad.append(("CEMIT-ALIAS", f"shape variant {v}: block {b}'s"
                        f" chain reads M{r}, which the block holds, after"
                        " its first pass stored the block over it"))
        later = [i for i in range(pos + 1, len(program)) if r in program[i]]
        if later:
            bad.append(("CEMIT-GEMM", f"shape variant {v}: block {b} holds"
                        f" M{r}, which chains {later} read after the block"
                        " is stored"))
    return bad


def _check_homes(desc, loc: str) -> list[Finding]:
    """The four shape variants' homes: ``R`` distinct homes that fit where
    they sit (an S row only where ``bn <= bq``, a T row only where ``bp
    <= bq``, own rows numbered from 0 up, a block of C), no slab row read
    by its rank or a later one, every C home sound (:func:`_check_c_homes`)."""
    R, found, chains = desc.rank, [], list(desc.chains(2))
    reads = [{(side, ~i) for side, i in enumerate(ops) if i < 0}
             for ops in desc.operands.tolist()]
    m, _, n = desc.base_case
    limits = (int(desc.rows[0]), int(desc.rows[1]), R, m * n)
    for v, table in enumerate(desc.homes.tolist()):
        homes = [tuple(h) for h in table]
        own = sorted(row for slab, row in homes if slab == 2)
        fits = (v & 1, v & 2, True, True)
        bad = [(r, h) for r, h in enumerate(homes)
               if h[0] not in (0, 1, 2, 3) or not fits[h[0]]
               or not 0 <= h[1] < limits[h[0]]
               or any(h in later for later in reads[r:])]
        if len(set(homes)) != R or own != list(range(len(own))) or bad:
            found.append(("CEMIT-GEMM", f"shape variant {v}: homes {homes}"
                          " are not R distinct homes that fit, own rows"
                          f" 0 .. own-1, none read from its rank on ({bad})"))
        found += _check_c_homes(chains, homes, v)
    return [Finding("cemit", code, loc, msg) for code, msg in found]


def verify_descriptor(desc, algorithm, cse: bool, real: str = "double",
                      where: str = "<descriptor>") -> list[Finding]:
    """Verify one descriptor against its scheme.

    ``algorithm`` is the catalog :class:`FastAlgorithm` it was built from;
    ``cse`` and ``real`` must match its build (the layout depends on the
    one, the coefficients' type on the other).  Returns findings (empty
    == proven).
    """
    from repro.codegen.cbackend import REALS, _prepare

    s, t, c = _prepare(algorithm, cse)
    m, k, n = algorithm.base_case
    R = algorithm.rank
    want = ((m, k, n), R, (max(s["slots"], 1), max(t["slots"], 1),
                           len(c["defs"])))
    got = (tuple(desc.base_case), desc.rank, tuple(desc.rows.tolist()))
    if got != want:
        return [Finding("cemit", "CEMIT-LAYOUT", where,
                        f"base case, rank and rows {got} are not the"
                        f" layout's {want}")]
    if desc.operands.shape != (R, 2) or desc.homes.shape != (4, R, 2):
        return [Finding("cemit", "CEMIT-RANK", where,
                        f"operands {desc.operands.shape} and homes"
                        f" {desc.homes.shape} are not one per rank {R}")]
    findings: list[Finding] = []
    sizes = ((m * k, want[2][0], 0), (k * n, want[2][1], 0),
             (R, want[2][2], m * n))
    sides = [_walk(desc, side, sizes[side], REALS[real], f"{where}.{name}",
                   findings)
             for side, name in enumerate(("form_S", "form_T", "form_C"))]
    if findings:
        return findings
    (s_rows, _, _), (t_rows, _, _), (_, outputs, read) = sides
    if read != set(range(R)):
        return [Finding("cemit", "CEMIT-RANK", f"{where}.form_C",
                        f"form_C consumes products {sorted(read)}, the"
                        f" scheme's rank is {R}")]
    if len(outputs) != m * n:
        return [Finding("cemit", "CEMIT-LAYOUT", f"{where}.form_C",
                        "output block(s) never stored: "
                        f"{sorted(set(range(m * n)) - set(outputs))}")]
    loc = f"{where}.fmm_step"
    U_hat = _operands(desc, 0, s_rows, m * k, loc, findings)
    V_hat = _operands(desc, 1, t_rows, k * n, loc, findings)
    findings += _check_homes(desc, loc)
    if U_hat is None or V_hat is None:
        return findings
    W_hat = np.stack([outputs[b] for b in range(m * n)], axis=1)
    T, T_mag = np.einsum("xir,xjr,xkr->xijk", U_hat, V_hat, W_hat)
    T_scheme = np.einsum("ir,jr,kr->ijk",
                         algorithm.U, algorithm.V, algorithm.W)
    scale = max(1.0, float(np.abs(T_scheme).max()))
    err = np.abs(T - T_scheme)
    worst = float(err.max())
    # every coefficient rounds once into the element type: an entry may
    # move by a few roundings of the magnitudes it sums
    slack = 8 * float(np.finfo(REALS[real]).eps) * T_mag
    if (err > TENSOR_RTOL * scale + slack).any():
        ia, ib, ic = np.unravel_index(int(err.argmax()), err.shape)
        findings.append(Finding(
            "cemit", "CEMIT-TENSOR", where,
            "recovered bilinear form differs from the [U,V,W] scheme: "
            f"T[A{ia},B{ib},C{ic}] = {T[ia, ib, ic]:g}, scheme says"
            f" {T_scheme[ia, ib, ic]:g} (max |delta| = {worst:g})",
            detail={"max_abs_error": worst}))
    return findings


def verify_library(source: str | None = None) -> list[Finding]:
    """What the library asks of no descriptor: its vendor calls scale by
    ``alpha = 1``, ``beta = 0``, its passes are the
    :data:`~repro.codegen.cbackend.PASS_TERMS` wide the C homes are
    placed by, and the descriptor's fields are the contract's
    (:data:`EMISSION_CONTRACT`)."""
    from repro.codegen.cbackend import LIBRARY, PASS_TERMS, Descriptor

    where = LIBRARY.name
    source = source or LIBRARY.read_text()
    findings = []
    width = _RE_PASS.search(source)
    if width is None or int(width.group(1)) != PASS_TERMS:
        findings.append(Finding(
            "cemit", "CEMIT-LAYOUT", where,
            f"the library's passes are not the {PASS_TERMS} terms wide"
            " the C homes are placed by"))
    for m in _RE_VENDOR.finditer(source):
        args, (a, b) = m.group(2).split(", "), _SCALARS[m.group(1)]
        if args[a:a + 1] + args[b:b + 1] != ["1", "0"]:
            findings.append(Finding(
                "cemit", "CEMIT-GEMM", where,
                f"vendor call not at alpha = 1, beta = 0: {m.group(0)!r}"))
    fields = tuple(f.name for f in dataclasses.fields(Descriptor))
    if fields != EMISSION_CONTRACT:
        findings.append(Finding(
            "cemit", "CEMIT-LAYOUT", where,
            f"descriptor fields {fields} drift from the contract's"
            f" {EMISSION_CONTRACT}"))
    return findings


def verify_algorithm(name_or_alg, cse: bool,
                     real: str = "double") -> list[Finding]:
    """Build and verify one catalog entry's descriptor (no compiler
    needed)."""
    from repro.algorithms.catalog import get_algorithm
    from repro.codegen.cbackend import descriptor

    alg = (get_algorithm(name_or_alg) if isinstance(name_or_alg, str)
           else name_or_alg)
    where = f"{alg.name}[cbackend,cse={cse},{real}]"
    return verify_descriptor(descriptor(alg, cse, real), alg, cse, real,
                             where)


def verify_catalog(names=None,
                   cse_options=(False, True)) -> tuple[int, list[Finding]]:
    """The library, then every catalog entry x cse x element type;
    returns ``(checked, findings)``."""
    from repro.algorithms.catalog import list_algorithms
    from repro.codegen.cbackend import REALS

    if names is None:
        names = list_algorithms(include_apa=True)
    findings = verify_library()
    checked = 1
    for name in names:
        for cse in cse_options:
            for real in REALS:
                findings.extend(verify_algorithm(name, cse, real))
                checked += 1
    return checked, findings
