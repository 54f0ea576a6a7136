"""The code generator: ``[[U,V,W]]`` -> specialized Python source (Sec 3.1).

For each algorithm / addition-strategy / CSE combination we emit a
standalone module with fully unrolled block views, S/T formation, recursive
product calls and C assembly -- the Python analogue of the paper's C++
generator.  Key ingredients reproduced:

- custom linear-combination code per S_r/T_r/C_ij chain;
- scalar multiplication by +-1 lowered to native add/subtract;
- single-nonzero U/V columns forming no temporary (alias + static scalar
  piping into W);
- three addition strategies (``repro.codegen.strategies``);
- optional greedy CSE (``repro.codegen.cse``);
- dynamic peeling for arbitrary dimensions (``runtime.peel_apply``).

``compile_algorithm`` executes the source and returns its ``multiply``
callable; sources are cached by content hash and can be dumped for
inspection with ``write_source``.

**Arena protocol for generated code.**  Every generated module's entry
point is ``multiply(A, B, steps=1, base=None, out=None, workspace=None)``:

- ``out=`` receives the product (validated by ``runtime.check_out``:
  matching shape/result-dtype, writeable, non-overlapping with A/B);
- ``workspace=`` is a :class:`repro.core.workspace.Workspace` arena that
  supplies *every* temporary -- S/T chain destinations, CSE ``Y``
  definitions, the per-level ``M_r`` product slab, the streaming block
  stacks, the general-coefficient axpy scratch, and dynamic peeling's
  core-size fix-up buffer.  Size it with
  :func:`repro.core.workspace.codegen_footprint`, which mirrors this
  module's level loop and per-strategy slot counts exactly.

With a workspace the module runs a second, arena-lowered core
(``_core_ws``): the arena is ``reset()`` at call entry, each recursion
level ``mark()``s on entry and ``release()``s on exit, and per-rank S/T
buffers are marked/released inside the rank loop while the level's
``M_r`` slab (taken once, ``R`` blocks) stays live until C assembly --
the stack discipline that lets one arena serve the whole recursion tree.
A warm call with both ``out=`` and ``workspace=`` performs no large
allocations; results are bit-for-bit identical to the allocating path
(same ufunc/gemm sequence on the same values).  Without a workspace the
historical allocating core runs unchanged (``out=`` is then honored by a
final copy).
"""

from __future__ import annotations

import hashlib
import textwrap
import threading
import types

import numpy as np

from repro.codegen import cse as cse_mod
from repro.codegen.chains import Chain, ChainProgram, extract_chains
from repro.codegen.strategies import STRATEGIES, emit_chain, needs_axpy_scratch

_MODULE_CACHE: dict[str, types.ModuleType] = {}
#: guards _MODULE_CACHE -- concurrent dispatchers compile lazily, and an
#: unlocked check-then-exec would run the same module body twice and hand
#: out two distinct function objects for one fingerprint
_compile_lock = threading.Lock()


def _np_literal(M: np.ndarray) -> str:
    rows = ",\n     ".join(
        "[" + ", ".join(repr(float(x)) for x in row) + "]" for row in M
    )
    return f"np.array([{rows}])"


def _flatten_defs(defs: list[Chain], base_index: dict[str, int]) -> np.ndarray:
    """Express CSE temporaries as linear combinations of the base sources
    (substituting nested Y references) for the streaming matrices."""
    nbase = len(base_index)
    vecs: dict[str, np.ndarray] = {}
    rows = []
    for d in defs:
        v = np.zeros(nbase)
        for t in d.terms:
            if t.source in base_index:
                v[base_index[t.source]] += t.coeff
            else:
                v += t.coeff * vecs[t.source]
        vecs[d.target] = v
        rows.append(v)
    return np.array(rows) if rows else np.zeros((0, nbase))


def _chain_matrix(chains: list[Chain], base_index: dict[str, int],
                  def_names: list[str]) -> np.ndarray:
    cols = len(base_index) + len(def_names)
    def_index = {nm: len(base_index) + i for i, nm in enumerate(def_names)}
    M = np.zeros((len(chains), cols))
    for r, ch in enumerate(chains):
        for t in ch.terms:
            j = base_index.get(t.source)
            if j is None:
                j = def_index[t.source]
            M[r, j] += t.coeff
    return M


def prepared_chains(
    algorithm, cse: bool, pipe_scalars: bool = True
) -> tuple[ChainProgram, list[Chain], list[Chain], list[Chain],
           list[Chain], list[Chain], list[Chain]]:
    """The chain program exactly as :func:`generate_source` lowers it.

    Returns ``(prog, s_chains, t_chains, c_chains, s_defs, t_defs,
    c_defs)`` with the same CSE invocation (prefixes, ordering) the
    emitted module uses.  ``repro.core.workspace.codegen_footprint``
    shares this so arena sizing can never drift from the generator's
    actual slot counts.
    """
    prog: ChainProgram = extract_chains(algorithm, pipe_scalars=pipe_scalars)
    s_chains, t_chains, c_chains = prog.s_chains, prog.t_chains, prog.c_chains
    s_defs: list[Chain] = []
    t_defs: list[Chain] = []
    c_defs: list[Chain] = []
    if cse:
        rs = cse_mod.eliminate(s_chains, temp_prefix="YA")
        rt = cse_mod.eliminate(t_chains, temp_prefix="YB")
        rc = cse_mod.eliminate(c_chains, temp_prefix="YM")
        s_chains, s_defs = rs.chains, rs.definitions
        t_chains, t_defs = rt.chains, rt.definitions
        c_chains, c_defs = rc.chains, rc.definitions
    return prog, s_chains, t_chains, c_chains, s_defs, t_defs, c_defs


def generate_source(
    algorithm,
    strategy: str = "write_once",
    cse: bool = False,
    pipe_scalars: bool = True,
) -> str:
    """Emit the Python source of a specialized multiply for ``algorithm``."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    (prog, s_chains, t_chains, c_chains,
     s_defs, t_defs, c_defs) = prepared_chains(algorithm, cse, pipe_scalars)
    alg = prog.algorithm
    m, k, n, R = alg.m, alg.k, alg.n, alg.rank

    for r, (sc, tc) in enumerate(zip(prog.s_chains, prog.t_chains)):
        if not sc.terms or not tc.terms:
            raise ValueError(f"degenerate rank column {r}: empty S or T chain")

    L: list[str] = []
    emit = L.append
    emit('"""Auto-generated fast matrix multiplication.')
    emit("")
    emit(f"algorithm : {alg.name} <{m},{k},{n}> rank {R}"
         f"{' (APA)' if alg.apa else ''}")
    emit(f"strategy  : {strategy}, cse={cse}, scalar piping={pipe_scalars}")
    emit('Generated by repro.codegen.generator; do not edit."""')
    emit("import numpy as np")
    emit("from repro.codegen import runtime")
    emit("")
    emit(f"M, K, N, RANK = {m}, {k}, {n}, {R}")
    # Scheme metadata the static verifier (repro.analyze.symbolic) keys on:
    # enough to resolve the catalog [U,V,W] this module must implement and
    # the exact generator configuration that produced it.
    emit("_SCHEME = {")
    emit(f"    'algorithm': {alg.name!r},")
    emit(f"    'base_case': ({m}, {k}, {n}),")
    emit(f"    'rank': {R},")
    emit(f"    'apa': {bool(alg.apa)!r},")
    emit(f"    'strategy': {strategy!r},")
    emit(f"    'cse': {bool(cse)!r},")
    emit(f"    'pipe_scalars': {bool(pipe_scalars)!r},")
    emit(f"    'fingerprint': {fingerprint(algorithm, strategy, cse, pipe_scalars)!r},")
    emit("}")
    emit("")

    if strategy == "streaming":
        a_index = {f"A{i}": i for i in range(m * k)}
        b_index = {f"B{i}": i for i in range(k * n)}
        m_index = {f"M{i}": i for i in range(R)}
        SD = _flatten_defs(s_defs, a_index)
        TD = _flatten_defs(t_defs, b_index)
        CD = _flatten_defs(c_defs, m_index)
        SC = _chain_matrix(s_chains, a_index, [d.target for d in s_defs])
        TC = _chain_matrix(t_chains, b_index, [d.target for d in t_defs])
        CC = _chain_matrix(c_chains, m_index, [d.target for d in c_defs])
        emit(f"_S_DEFS = {_np_literal(SD) if SD.size else 'None'}")
        emit(f"_T_DEFS = {_np_literal(TD) if TD.size else 'None'}")
        emit(f"_C_DEFS = {_np_literal(CD) if CD.size else 'None'}")
        emit(f"_S_CHAINS = {_np_literal(SC)}")
        emit(f"_T_CHAINS = {_np_literal(TC)}")
        emit(f"_C_CHAINS = {_np_literal(CC)}")
        emit("")

    emit(textwrap.dedent("""\
        def multiply(A, B, steps=1, base=None, out=None, workspace=None):
            \"\"\"Multiply A @ B with the generated fast algorithm.

            ``out=`` receives the product (validated: shape, result dtype,
            no overlap with A/B); ``workspace=`` is an arena supplying every
            temporary (size it with workspace.codegen_footprint) -- with
            both, a warm call performs no large allocations.  See
            repro.codegen.generator for the protocol.
            \"\"\"
            A = runtime.as2d(A, "A")
            B = runtime.as2d(B, "B")
            if A.shape[1] != B.shape[0]:
                raise ValueError("inner dimensions disagree")
            if base is None:
                base = runtime.default_base
            if out is not None:
                out = runtime.check_out(out, A, B)
            if workspace is not None:
                workspace.reset()
                return _run_ws(A, B, int(steps), base, out, workspace)
            C = _run(A, B, int(steps), base)
            if out is not None:
                np.copyto(out, C)
                return out
            return C


        def _run(A, B, steps, base):
            p, q = A.shape
            r = B.shape[1]
            if not runtime.should_split(steps, p, q, r, M, K, N):
                return base(A, B)
            return runtime.peel_apply(
                A, B, M, K, N, lambda a, b: _core(a, b, steps, base))


        def _run_ws(A, B, steps, base, out, ws):
            p, q = A.shape
            r = B.shape[1]
            if not runtime.should_split(steps, p, q, r, M, K, N):
                return runtime.leaf(base, A, B, out)
            return runtime.peel_apply(
                A, B, M, K, N,
                lambda a, b, o=None: _core_ws(a, b, steps, base, o, ws),
                out=out, workspace=ws)

    """))

    body: list[str] = []
    b = body.append
    b("p, q = A.shape")
    b("r = B.shape[1]")
    b("bp = p // M; bq = q // K; br = r // N")
    b("_dt = np.result_type(A, B)")
    for i in range(m * k):
        rr, cc = divmod(i, k)
        b(f"A{i} = A[{rr}*bp:{rr + 1}*bp, {cc}*bq:{cc + 1}*bq]")
    for i in range(k * n):
        rr, cc = divmod(i, n)
        b(f"B{i} = B[{rr}*bq:{rr + 1}*bq, {cc}*br:{cc + 1}*br]")
    b("")

    if strategy == "streaming":
        b("_SS = runtime.streaming_combine(A, M, K, _S_DEFS, _S_CHAINS)")
        b("_TT = runtime.streaming_combine(B, K, N, _T_DEFS, _T_CHAINS)")
        for r in range(R):
            b(f"M{r} = _run(_SS[{r}], _TT[{r}], steps - 1, base)")
        b("return runtime.streaming_output("
          f"[{', '.join(f'M{r}' for r in range(R))}], "
          "_C_DEFS, _C_CHAINS, p, r, M, N)")
    else:
        for d in s_defs:
            body.extend(emit_chain(d, strategy, "(bp, bq)"))
        for d in t_defs:
            body.extend(emit_chain(d, strategy, "(bq, br)"))
        # interleave S_r, T_r, M_r so temporaries stay short-lived
        # (the pairwise/write-once memory story of Section 3.2)
        for r in range(R):
            body.extend(emit_chain(s_chains[r], strategy, "(bp, bq)"))
            body.extend(emit_chain(t_chains[r], strategy, "(bq, br)"))
            b(f"M{r} = _run(S{r}, T{r}, steps - 1, base)")
            if not s_chains[r].is_alias():
                b(f"del S{r}")
            if not t_chains[r].is_alias():
                b(f"del T{r}")
        b("")
        b("C = np.empty((p, r), _dt)")
        for i in range(m * n):
            rr, cc = divmod(i, n)
            b(f"C{i} = C[{rr}*bp:{rr + 1}*bp, {cc}*br:{cc + 1}*br]")
        for d in c_defs:
            body.extend(emit_chain(d, strategy, "(bp, br)"))
        for i, ch in enumerate(c_chains):
            if not ch.terms:
                b(f"C{i}[:] = 0.0")
                continue
            body.extend(emit_chain(ch, strategy, "(bp, br)", into_view=f"C{i}"))
        b("return C")

    emit("def _core(A, B, steps, base):")
    for line in body:
        emit(("    " + line) if line else "")
    emit("")
    emit("")

    # ---- the arena-lowered core: every temporary is a workspace view ----
    wsb: list[str] = []
    w = wsb.append
    w("p, q = A.shape")
    w("r = B.shape[1]")
    w("bp = p // M; bq = q // K; br = r // N")
    w("_dt = np.result_type(A, B)")
    w("_lvl = ws.mark()")
    if strategy == "streaming":
        w("_SS = runtime.streaming_combine(A, M, K, _S_DEFS, _S_CHAINS,"
          " workspace=ws)")
        w("_TT = runtime.streaming_combine(B, K, N, _T_DEFS, _T_CHAINS,"
          " workspace=ws)")
        # the product rows double as the head of the C-formation stack, so
        # no second copy of the M_r slab is ever made (its tail holds the
        # C-side CSE definition rows, matmul'd in place)
        w(f"_ST = ws.take((RANK + {len(c_defs)}, bp * br), _dt)")
        w("_MM = _ST[:RANK].reshape(RANK, bp, br)")
        w("for _i in range(RANK):")
        w("    _mk = ws.mark()")
        w("    _run_ws(_SS[_i], _TT[_i], steps - 1, base, _MM[_i], ws)")
        w("    ws.release(_mk)")
        w("C = out if out is not None else np.empty((p, r), _dt)")
        w("runtime.streaming_output_stacked(_ST, RANK, _C_DEFS, _C_CHAINS,"
          " p, r, M, N, C, ws)")
    else:
        for i in range(m * k):
            rr, cc = divmod(i, k)
            w(f"A{i} = A[{rr}*bp:{rr + 1}*bp, {cc}*bq:{cc + 1}*bq]")
        for i in range(k * n):
            rr, cc = divmod(i, n)
            w(f"B{i} = B[{rr}*bq:{rr + 1}*bq, {cc}*br:{cc + 1}*br]")
        if needs_axpy_scratch(s_chains + t_chains + c_chains
                              + s_defs + t_defs + c_defs):
            w("_scr = ws.take_scratch(_dt.itemsize"
              " * max(bp * bq, bq * br, bp * br))")
        # allocating pairwise derives S/T chain dtypes from the operand
        # blocks (``A0 + A3``); the arena lowering must match it so mixed-
        # dtype inputs stay bit-for-bit equal.  write_once allocates its
        # chains in the result dtype on both paths already.
        if strategy == "pairwise":
            w("_dta = A.dtype")
            w("_dtb = B.dtype")
            dta, dtb = "_dta", "_dtb"
        else:
            dta = dtb = "_dt"
        for d in s_defs:
            wsb.extend(emit_chain(d, strategy, "(bp, bq)", arena=True,
                                  dtype_expr=dta))
        for d in t_defs:
            wsb.extend(emit_chain(d, strategy, "(bq, br)", arena=True,
                                  dtype_expr=dtb))
        # the M_r slab is taken once and lives until C assembly; per-rank
        # S/T views are marked/released inside the loop (Section 4.1's
        # stack discipline, adapted to the generated all-ranks-live C pass)
        w("_MM = ws.take((RANK, bp, br), _dt)")
        for r in range(R):
            w("_mk = ws.mark()")
            wsb.extend(emit_chain(s_chains[r], strategy, "(bp, bq)",
                                  arena=True, dtype_expr=dta))
            wsb.extend(emit_chain(t_chains[r], strategy, "(bq, br)",
                                  arena=True, dtype_expr=dtb))
            w(f"M{r} = _run_ws(S{r}, T{r}, steps - 1, base, _MM[{r}], ws)")
            w("ws.release(_mk)")
        w("")
        w("C = out if out is not None else np.empty((p, r), _dt)")
        for i in range(m * n):
            rr, cc = divmod(i, n)
            w(f"C{i} = C[{rr}*bp:{rr + 1}*bp, {cc}*br:{cc + 1}*br]")
        for d in c_defs:
            wsb.extend(emit_chain(d, strategy, "(bp, br)", arena=True))
        for i, ch in enumerate(c_chains):
            if not ch.terms:
                w(f"C{i}[:] = 0.0")
                continue
            wsb.extend(emit_chain(ch, strategy, "(bp, br)",
                                  into_view=f"C{i}", arena=True))
    w("ws.release(_lvl)")
    w("return C")

    emit("def _core_ws(A, B, steps, base, out, ws):")
    for line in wsb:
        emit(("    " + line) if line else "")
    emit("")
    return "\n".join(L)


def fingerprint(algorithm, strategy: str, cse: bool, pipe_scalars: bool = True) -> str:
    h = hashlib.sha1()
    for arr in (algorithm.U, algorithm.V, algorithm.W):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(f"{algorithm.base_case}|{strategy}|{cse}|{pipe_scalars}".encode())
    return h.hexdigest()[:16]


def compile_algorithm(
    algorithm,
    strategy: str = "write_once",
    cse: bool = False,
    pipe_scalars: bool = True,
):
    """Generate + exec the specialized module; returns its ``multiply``.

    Modules are cached by content hash, so repeated calls are cheap.
    """
    key = fingerprint(algorithm, strategy, cse, pipe_scalars)
    mod = _MODULE_CACHE.get(key)
    if mod is None:
        with _compile_lock:
            mod = _MODULE_CACHE.get(key)
            if mod is None:
                src = generate_source(algorithm, strategy, cse, pipe_scalars)
                name = f"repro_generated_{algorithm.name}_{strategy}_{key}"
                mod = types.ModuleType(name)
                mod.__dict__["__file__"] = f"<generated {name}>"
                exec(compile(src, f"<generated {name}>", "exec"), mod.__dict__)
                _MODULE_CACHE[key] = mod
    return mod.multiply


def write_source(algorithm, path, strategy: str = "write_once",
                 cse: bool = False, pipe_scalars: bool = True) -> None:
    """Dump the generated module to ``path`` for inspection."""
    from pathlib import Path

    Path(path).write_text(generate_source(algorithm, strategy, cse, pipe_scalars))
