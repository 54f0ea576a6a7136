"""C emission verifier: prove the native chain kernels match their scheme.

The C backend (:mod:`repro.codegen.cbackend`) emits three fused kernels
per algorithm -- ``form_S``, ``form_T``, ``form_C`` -- as flat C source.
The Python-side symbolic pass (:mod:`repro.analyze.symbolic`) cannot see
them, so a sign flipped in the C emitter would only surface as a numeric
test failure.  This pass closes that gap the same way: it parses the
emitted translation unit back into coefficient vectors over the input
blocks (``form_S``/``form_T``) and over the rank-R products (``form_C``),
resolves CSE definitions in emission order, grafts the zero-traffic alias
columns back in from the driver's ``_prepare`` layout (the C source never
materializes them -- the ctypes driver passes block views directly), and
compares the recovered bilinear tensor

    sum_r  U_hat[:, r] x V_hat[:, r] x W_hat[:, r]

coefficient-by-coefficient against the catalog ``[U, V, W]`` scheme.
No compiler is involved: emission is pure string generation, so the pass
runs (and proves) on hosts with no C toolchain at all.

Every statement must match one of the emitter's declared forms
(``EMISSION_CONTRACT["cbackend"]``: ``block_ptr``, ``slab_ptr``,
``product_ptr``, ``scratch_ptr``, ``output_ptr``, ``fused_store``,
``nodep_hint``, and the ``strip_*`` forms of the peeled inner-dimension
strip) -- anything else is a finding, never silently skipped.

Each ``j`` loop carries a vectoriser hint (``NODEP``: no iteration reads
what another writes), which the compiler takes on trust -- so the pass
proves the kernel's half of it: the store target of a hinted loop and each
of its sources are distinct objects, a different row of the slab, of the
scratch or of the output grid, or a different buffer altogether.  That
buffers passed as different arguments do not overlap is the caller's half
(:class:`repro.codegen.cbackend.CompiledChains`).

``form_C`` also adds the peeled inner-dimension strip (paper Section 3.5),
``C[i, :] += sum_t A12[i, t] * B21[t, :]``, to each block row right after
storing it.  The pass proves that every output block takes the strip
exactly once, after its store, inside the row loop, from the rows of
``A12`` and columns of ``B21`` that belong to that block.

The kernels take a row range (``long i0, long i1``) and the parallel
schedules run ranges of one kernel concurrently, so the pass also proves
that a call touches rows ``[i0, i1)`` and nothing else: the signature
ends in the range, the body is exactly one ``for (long i = i0; i < i1;
++i)`` loop, every pointer and store sits inside it, every pointer form
addresses row ``i`` of its block (or the per-call ``Y`` scratch) and is
indexed by ``j`` in ``[0, bq)`` only, and no contract form can assign
``i``, ``i0`` or ``i1``.

Finding codes: ``CEMIT-PARSE`` (statement outside the contract),
``CEMIT-HEADER`` (provenance header disagrees with the algorithm),
``CEMIT-BLOCK`` (block pointer or strip offsets disagree with the block),
``CEMIT-ALIAS`` (a hinted loop's target is also one of its sources),
``CEMIT-RANGE`` (a kernel does not confine itself to rows ``[i0, i1)``),
``CEMIT-UNINIT`` (store reads a slab row before it is written),
``CEMIT-LAYOUT`` (slab row in C disagrees with the driver layout),
``CEMIT-RANK`` (``form_C`` consumes != rank products),
``CEMIT-CBLOCK`` (an output block is never written, or its strip is
missing, repeated or ahead of its store),
``CEMIT-TENSOR`` (recovered bilinear form differs from the scheme).
"""

from __future__ import annotations

import re

import numpy as np

from repro.analyze.base import Finding

#: relative tolerance of the tensor comparison -- coefficients round-trip
#: through ``repr(float)`` so anything beyond float noise is emitter drift
TENSOR_RTOL = 1e-8

_RE_HEADER = re.compile(
    r" \* algorithm (\S+) <(\d+),(\d+),(\d+)> rank (\d+), cse=(True|False)")
_RE_FN = re.compile(r"void (form_[STC])\((.*)\)$")
#: what a kernel's parameter list must be, row range last
_SIGNATURES = {
    "form_S": "const double *X, long ldx, long bp, long bq, double *S,"
              " long i0, long i1",
    "form_C": "const double **M, long bp, long bq, double *C, long ldc,"
              " double *Y, const double *A12, long lda, const double *B21,"
              " long ldb, long dq, long i0, long i1",
}
_SIGNATURES["form_T"] = _SIGNATURES["form_S"]
_ROW_LOOP = "for (long i = i0; i < i1; ++i) {"
_COL_LOOP = "for (long j = 0; j < bq; ++j)"
_HINT = "NODEP"
_STRIP_LOOP = "for (long t = 0; t < dq; ++t) {"
_RE_STRIP_COEFF = re.compile(
    r"const double a = A12\[\(\(size_t\)\((\d+)\*bp \+ i\)\)\*lda \+ t\];")
_RE_STRIP_ROW = re.compile(
    r"const double \*b = B21 \+ \(size_t\)t\*ldb \+ \(size_t\)\((\d+)\)\*bq;")
_RE_STRIP_UPDATE = re.compile(r"p(C\d+)\[j\] \+= a \* b\[j\];$")
_RE_BLOCK = re.compile(
    r"const double \*p([AB])(\d+) = X \+ \(\(size_t\)\((\d+)\*bp \+ i\)\)"
    r"\*ldx \+ \(size_t\)\((\d+)\)\*bq;")
_RE_SLAB = re.compile(
    r"double \*p(\w+) = S \+ (\d+)\*blk \+ \(size_t\)i\*bq;")
_RE_PRODUCT = re.compile(
    r"const double \*p(M)(\d+) = M\[(\d+)\] \+ \(size_t\)i\*bq;")
_RE_SCRATCH = re.compile(r"double \*p(\w+) = Y \+ (\d+)\*bq;")
_RE_OUTPUT = re.compile(
    r"double \*pC(\d+) = C \+ \(\(size_t\)\((\d+)\*bp \+ i\)\)\*ldc"
    r" \+ \(size_t\)\((\d+)\)\*bq;")
_RE_STORE = re.compile(r"p(\w+)\[j\] = (.+);$")
_RE_TERM = re.compile(
    r"([+-]) (?:(-?[0-9][0-9.eE+-]*) \* )?p([A-Za-z]+\d+)\[j\]")

#: statement-free lines the parser passes over without a contract match
_BOILERPLATE = (
    "{", "}", "(void)Y;",
    "const size_t blk = (size_t)bp * (size_t)bq;",
    "#include <stddef.h>",
    # what NODEP may stand for: "no loop-carried dependence", per compiler
    "#if defined(__clang__)",
    '#define NODEP _Pragma("clang loop vectorize(assume_safety)")',
    "#elif defined(__GNUC__)",
    '#define NODEP _Pragma("GCC ivdep")',
    "#else", "#define NODEP", "#endif",
)


def _parse_rhs(rhs: str) -> list[tuple[float, str]] | None:
    """``pA0[j] - 0.5 * pYA1[j]`` -> ``[(1.0, "A0"), (-0.5, "YA1")]``.

    Returns ``None`` when any character falls outside the emitter's term
    grammar -- the caller turns that into a loud finding.
    """
    s = rhs if rhs.startswith(("+ ", "- ")) else "+ " + rhs
    pos, terms = 0, []
    while pos < len(s):
        m = _RE_TERM.match(s, pos)
        if m is None:
            return None
        sign, coeff, src = m.groups()
        c = float(coeff) if coeff is not None else 1.0
        terms.append((c if sign == "+" else -c, src))
        pos = m.end()
        if pos < len(s):
            if s[pos] != " ":
                return None
            pos += 1
    return terms


class _Kernel:
    """The parsed state of one ``form_*`` function."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: pointer name (sans ``p``) -> coefficient vector, or ``None``
        #: for declared-but-unwritten slab/scratch/output rows
        self.env: dict[str, np.ndarray | None] = {}
        self.slab_rows: dict[str, int] = {}      # target -> declared S row
        self.block_of: dict[str, int] = {}       # pA3 -> 3 (checked)
        self.out_block: dict[str, int] = {}      # C target -> output block
        self.products: dict[str, int] = {}       # M target -> product index
        self.stored: list[str] = []              # store order
        #: pointer name -> the object it addresses, ``(buffer, row...)``
        self.obj: dict[str, tuple] = {}
        #: output blocks that took the inner strip; ``strip`` is the open
        #: strip loop's ``{"row": bi, "col": bj}`` as far as parsed
        self.stripped: list[str] = []
        self.strip: dict | None = None
        #: the one ``i0 <= i < i1`` loop: None before it, True inside,
        #: False once its brace closed
        self.in_rows: bool | None = None


def _strip_update(kernel: _Kernel, line: str, loc: str, ccols: int,
                  findings: list[Finding]) -> None:
    """The j-loop body of an open strip loop: ``pC<idx>[j] += a * b[j]``
    for the block just stored, from that block's rows of ``A12`` and
    columns of ``B21``."""
    m = _RE_STRIP_UPDATE.match(line)
    if m is None or m.group(1) not in kernel.out_block:
        findings.append(Finding(
            "cemit", "CEMIT-PARSE", loc,
            f"strip loop body is not an output-block update: {line!r}"))
        return
    target, strip = m.group(1), kernel.strip
    strip["done"] = True
    block = divmod(kernel.out_block[target], ccols)
    if (strip.get("row"), strip.get("col")) != block:
        findings.append(Finding(
            "cemit", "CEMIT-BLOCK", loc,
            f"strip of p{target}, output block {block}, reads A12 block"
            f" row {strip.get('row')} and B21 block column"
            f" {strip.get('col')}"))
    elif kernel.stored[-1:] != [target] or target in kernel.stripped:
        findings.append(Finding(
            "cemit", "CEMIT-CBLOCK", loc,
            f"the strip of p{target} must follow its store, once"))
    else:
        kernel.stripped.append(target)


def _parse_unit(source: str, nblocks: dict[str, int],
                where: str) -> tuple[dict[str, _Kernel], dict, list[Finding]]:
    """One pass over the translation unit; returns the three kernels, the
    provenance header fields, and the parse findings."""
    findings: list[Finding] = []
    kernels: dict[str, _Kernel] = {}
    header: dict = {}
    current: _Kernel | None = None
    pending_store = hinted = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        loc = f"{where}:{lineno}"
        if not line or line.startswith(("/*", "*", "*/")):
            m = _RE_HEADER.match(raw)
            if m:
                header = {
                    "algorithm": m.group(1),
                    "base_case": tuple(int(m.group(i)) for i in (2, 3, 4)),
                    "rank": int(m.group(5)),
                    "cse": m.group(6) == "True",
                }
            continue
        m = _RE_FN.match(line)
        if m:
            current = _Kernel(m.group(1))
            kernels[current.name] = current
            pending_store = hinted = False
            if m.group(2) != _SIGNATURES[current.name]:
                findings.append(Finding(
                    "cemit", "CEMIT-RANGE", loc,
                    f"{current.name} takes ({m.group(2)}), not a row range:"
                    f" expected ({_SIGNATURES[current.name]})"))
            continue
        if current is not None and line.startswith("for (long i"):
            if line != _ROW_LOOP or current.in_rows is not None:
                findings.append(Finding(
                    "cemit", "CEMIT-RANGE", loc,
                    f"{current.name} must sweep its rows in exactly one"
                    f" {_ROW_LOOP!r} loop, found {line!r}"))
            current.in_rows = True
            continue
        if line == "}" and current is not None and current.strip is not None:
            if "done" not in current.strip:
                findings.append(Finding(
                    "cemit", "CEMIT-PARSE", loc,
                    f"{current.name} strip loop updates no block"))
            current.strip = None
            continue
        if line == "}" and current is not None and current.in_rows:
            current.in_rows = False      # the j-loops carry no braces
            continue
        if line in _BOILERPLATE:
            continue
        if current is None:
            findings.append(Finding(
                "cemit", "CEMIT-PARSE", loc,
                f"statement outside any kernel: {line!r}"))
            continue
        if pending_store:
            pending_store = False
            was_hinted, hinted = hinted, False
            if current.strip is not None:
                _strip_update(current, line, loc, nblocks["Ccols"], findings)
                continue
            m = _RE_STORE.match(line)
            if m is None:
                findings.append(Finding(
                    "cemit", "CEMIT-PARSE", loc,
                    f"j-loop body is not a fused store: {line!r}"))
                continue
            target, rhs = m.groups()
            terms = _parse_rhs(rhs)
            if terms is None:
                findings.append(Finding(
                    "cemit", "CEMIT-PARSE", loc,
                    f"store RHS outside the term grammar: {rhs!r}"))
                continue
            if target not in current.env:
                findings.append(Finding(
                    "cemit", "CEMIT-PARSE", loc,
                    f"store targets undeclared pointer {target!r}"))
                continue
            clash = [src for _, src in terms
                     if current.obj.get(src) == current.obj[target]]
            if was_hinted and clash:
                findings.append(Finding(
                    "cemit", "CEMIT-ALIAS", loc,
                    f"hinted loop stores {target!r} = {current.obj[target]}"
                    f" and reads it through {clash}: NODEP asserts no"
                    " iteration reads what another writes"))
                continue
            vec = None
            for coeff, src in terms:
                src_vec = current.env.get(src)
                if src_vec is None:
                    findings.append(Finding(
                        "cemit", "CEMIT-UNINIT", loc,
                        f"store of {target!r} reads {src!r} before any"
                        " write reaches it"))
                    break
                vec = coeff * src_vec if vec is None else vec + coeff * src_vec
            else:
                current.env[target] = vec
                current.stored.append(target)
            continue
        if not current.in_rows:
            findings.append(Finding(
                "cemit", "CEMIT-RANGE", loc,
                f"{current.name} statement outside its i0 <= i < i1 row"
                f" loop: {line!r}"))
            continue
        if line == _HINT:
            hinted = True
            continue
        if line == _COL_LOOP:
            pending_store = True
            continue
        if hinted:
            hinted = False
            findings.append(Finding(
                "cemit", "CEMIT-PARSE", loc,
                f"{_HINT} must sit on a j loop, found {line!r}"))
        if current.strip is not None:
            for key, pattern in (("row", _RE_STRIP_COEFF),
                                 ("col", _RE_STRIP_ROW)):
                m = pattern.match(line)
                if m:
                    current.strip[key] = int(m.group(1))
                    break
            else:
                findings.append(Finding(
                    "cemit", "CEMIT-PARSE", loc,
                    f"statement outside the strip forms: {line!r}"))
            continue
        if line == _STRIP_LOOP and current.name == "form_C":
            current.strip = {}
            continue
        m = _RE_BLOCK.match(line)
        if m:
            space, idx, brow, bcol = m.group(1), int(m.group(2)), \
                int(m.group(3)), int(m.group(4))
            cols = nblocks[f"{space}cols"]
            if brow * cols + bcol != idx:
                findings.append(Finding(
                    "cemit", "CEMIT-BLOCK", loc,
                    f"pointer p{space}{idx} addresses block"
                    f" ({brow},{bcol}) = index {brow * cols + bcol}"))
                continue
            vec = np.zeros(nblocks[space])
            vec[idx] = 1.0
            current.env[f"{space}{idx}"] = vec
            current.block_of[f"{space}{idx}"] = idx
            current.obj[f"{space}{idx}"] = ("X", idx)
            continue
        m = _RE_SLAB.match(line)
        if m:
            current.env.setdefault(m.group(1), None)
            current.slab_rows[m.group(1)] = int(m.group(2))
            current.obj[m.group(1)] = ("S", int(m.group(2)))
            continue
        m = _RE_PRODUCT.match(line)
        if m:
            name, idx, row = f"M{m.group(2)}", int(m.group(2)), int(m.group(3))
            if idx != row:
                findings.append(Finding(
                    "cemit", "CEMIT-BLOCK", loc,
                    f"pointer p{name} reads product row {row}"))
                continue
            vec = np.zeros(nblocks["M"])
            vec[idx] = 1.0
            current.env[name] = vec
            current.products[name] = idx
            current.obj[name] = ("M", idx)
            continue
        m = _RE_SCRATCH.match(line)
        if m:
            current.env.setdefault(m.group(1), None)
            current.obj[m.group(1)] = ("Y", int(m.group(2)))
            continue
        m = _RE_OUTPUT.match(line)
        if m:
            idx, bi, bj = (int(m.group(i)) for i in (1, 2, 3))
            if bi * nblocks["Ccols"] + bj != idx:
                findings.append(Finding(
                    "cemit", "CEMIT-BLOCK", loc,
                    f"pointer pC{idx} addresses output block ({bi},{bj})"
                    f" = index {bi * nblocks['Ccols'] + bj}"))
                continue
            current.env.setdefault(f"C{idx}", None)
            current.out_block[f"C{idx}"] = idx
            current.obj[f"C{idx}"] = ("C", idx)
            continue
        findings.append(Finding(
            "cemit", "CEMIT-PARSE", loc,
            f"statement outside the cbackend emission contract: {line!r}"))
    return kernels, header, findings


def _side_matrix(kernel: _Kernel | None, side: dict, nblocks: int,
                 rank: int, where: str,
                 findings: list[Finding]) -> np.ndarray | None:
    """Recover the per-rank coefficient matrix (``nblocks x rank``) from a
    parsed ``form_S``/``form_T`` plus the driver's slab layout."""
    if kernel is None:
        findings.append(Finding(
            "cemit", "CEMIT-PARSE", where, "kernel missing from the unit"))
        return None
    mat = np.zeros((nblocks, rank))
    for r, (ch, lay) in enumerate(zip(side["chains"], side["layout"])):
        if lay[0] == "alias":
            mat[lay[1], r] = ch.terms[0].coeff
            continue
        vec = kernel.env.get(ch.target)
        if vec is None:
            findings.append(Finding(
                "cemit", "CEMIT-UNINIT", where,
                f"{kernel.name} never writes slab column {ch.target!r}"))
            return None
        declared = kernel.slab_rows.get(ch.target)
        if declared != lay[1]:
            findings.append(Finding(
                "cemit", "CEMIT-LAYOUT", where,
                f"{kernel.name} places {ch.target!r} in slab row"
                f" {declared}, driver layout expects row {lay[1]}"))
            return None
        mat[:, r] = vec
    return mat


def verify_source(source: str, algorithm, cse: bool,
                  where: str = "<cbackend>") -> list[Finding]:
    """Verify one emitted C translation unit against its scheme.

    ``algorithm`` is the catalog :class:`FastAlgorithm` the unit was
    generated from; ``cse`` must match the generation flag (the slab
    layout depends on it).  Returns findings (empty == proven).
    """
    from repro.codegen.cbackend import _prepare

    s, t, c = _prepare(algorithm, cse)
    m, k, n = algorithm.base_case
    rank = algorithm.rank
    nblocks = {"A": m * k, "Acols": k, "B": k * n, "Bcols": n,
               "M": rank, "Ccols": n}
    kernels, header, findings = _parse_unit(source, nblocks, where)
    for kernel in kernels.values():
        if kernel.in_rows is not False:
            findings.append(Finding(
                "cemit", "CEMIT-RANGE", f"{where}.{kernel.name}",
                "kernel has no closed i0 <= i < i1 row loop"))
    if findings:
        return findings
    if header.get("algorithm") != algorithm.name or \
            header.get("base_case") != (m, k, n) or \
            header.get("rank") != rank or header.get("cse") != cse:
        findings.append(Finding(
            "cemit", "CEMIT-HEADER", where,
            f"provenance header {header} disagrees with"
            f" {algorithm.name} <{m},{k},{n}> rank {rank} cse={cse}"))
        return findings
    U_hat = _side_matrix(kernels.get("form_S"), s, m * k, rank,
                         f"{where}.form_S", findings)
    V_hat = _side_matrix(kernels.get("form_T"), t, k * n, rank,
                         f"{where}.form_T", findings)
    fc = kernels.get("form_C")
    if fc is None:
        findings.append(Finding(
            "cemit", "CEMIT-PARSE", f"{where}.form_C",
            "kernel missing from the unit"))
    if findings:
        return findings
    if len(fc.products) != rank:
        findings.append(Finding(
            "cemit", "CEMIT-RANK", f"{where}.form_C",
            f"form_C consumes {len(fc.products)} products, scheme rank"
            f" is {rank}"))
        return findings
    W_hat = np.zeros((m * n, rank))
    missing = []
    for idx in range(m * n):
        vec = fc.env.get(f"C{idx}")
        if vec is None:
            missing.append(idx)
        else:
            W_hat[idx] = vec
    if missing:
        findings.append(Finding(
            "cemit", "CEMIT-CBLOCK", f"{where}.form_C",
            f"output block(s) {missing} never written"))
        return findings
    bare = [idx for idx in range(m * n) if f"C{idx}" not in fc.stripped]
    if bare:
        findings.append(Finding(
            "cemit", "CEMIT-CBLOCK", f"{where}.form_C",
            f"output block(s) {bare} never take the inner-dimension strip"))
        return findings
    T = np.einsum("ir,jr,kr->ijk", U_hat, V_hat, W_hat)
    T_scheme = np.einsum("ir,jr,kr->ijk",
                         algorithm.U, algorithm.V, algorithm.W)
    scale = max(1.0, float(np.abs(T_scheme).max()))
    err = np.abs(T - T_scheme)
    worst = float(err.max())
    if worst > TENSOR_RTOL * scale:
        ia, ib, ic = np.unravel_index(int(err.argmax()), err.shape)
        findings.append(Finding(
            "cemit", "CEMIT-TENSOR", where,
            "recovered bilinear form differs from the [U,V,W] scheme: "
            f"T[A{ia},B{ib},C{ic}] = {T[ia, ib, ic]:g}, scheme says"
            f" {T_scheme[ia, ib, ic]:g} (max |delta| = {worst:g})",
            detail={"max_abs_error": worst}))
    return findings


def verify_algorithm(name_or_alg, cse: bool) -> list[Finding]:
    """Emit and verify one catalog entry's C unit (no compiler needed)."""
    from repro.algorithms.catalog import get_algorithm
    from repro.codegen.cbackend import generate_c_source

    alg = (get_algorithm(name_or_alg) if isinstance(name_or_alg, str)
           else name_or_alg)
    where = f"{alg.name}[cbackend,cse={cse}]"
    return verify_source(generate_c_source(alg, cse), alg, cse, where=where)


def verify_catalog(names=None,
                   cse_options=(False, True)) -> tuple[int, list[Finding]]:
    """Sweep every catalog entry x cse; returns ``(checked, findings)``."""
    from repro.algorithms.catalog import list_algorithms

    if names is None:
        names = list_algorithms(include_apa=True)
    findings: list[Finding] = []
    checked = 0
    for name in names:
        for cse in cse_options:
            findings.extend(verify_algorithm(name, cse))
            checked += 1
    return checked, findings
