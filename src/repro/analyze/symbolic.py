"""Symbolic kernel verifier: prove generated modules match their scheme.

A generated module (``repro.codegen.generator``) is trusted today because
executing it matches ``np.matmul`` on random inputs.  This pass removes
the "executing" part: it parses the module's AST and *abstractly
interprets* its ``_core`` over symbolic block variables.  Every S/T chain
becomes a linear-combination vector over the input blocks, every ``_run``
call registers one bilinear product, and every C-block write becomes a
linear combination of products.  The recovered bilinear form

    C[ic] = sum_p  w[ic,p] * (s_p . A) * (t_p . B)

is then compared coefficient-by-coefficient (as the order-3 tensor
``sum_r U[:,r] x V[:,r] x W[:,r]``) against the catalog ``[U,V,W]``
scheme named by the module's ``_SCHEME`` metadata.  The tensor comparison
is invariant to scalar piping, CSE factoring and chain ordering, so every
strategy x cse combination is checked against the *same* ground truth --
without executing a single multiply.

Any statement outside the generator's emission contract
(``repro.codegen.strategies.EMISSION_CONTRACT``) is itself a finding:
the interpreter fails loud, never silently skips.

Finding codes: ``SYM-META`` (missing/stale scheme metadata), ``SYM-PARSE``
(statement outside the contract), ``SYM-BLOCK`` (malformed block slice),
``SYM-UNINIT`` (read of unwritten buffer), ``SYM-OPERANDS`` (product fed
from the wrong side), ``SYM-RANK`` (product count != scheme rank),
``SYM-CBLOCK`` (output block never written), ``SYM-TENSOR`` (recovered
bilinear form differs from the scheme).
"""

from __future__ import annotations

import ast
from typing import Any

import numpy as np

from repro.analyze.base import Finding

TENSOR_RTOL = 1e-8

_UFUNC_STORES = {"copyto", "add", "subtract", "negative", "multiply"}


class _Opaque:
    """Scalar bookkeeping value (shapes, dtypes) -- never an array."""

    __slots__ = ()


_OPAQUE = _Opaque()


class _Input:
    """A function input matrix (``A`` or ``B``)."""

    __slots__ = ("space",)

    def __init__(self, space: str) -> None:
        self.space = space  # "A" or "B"


class _Val:
    """A linear combination: over input blocks ("A"/"B") or products ("M")."""

    __slots__ = ("kind", "vec")

    def __init__(self, kind: str, vec: Any) -> None:
        self.kind = kind      # "A" | "B" | "M"
        self.vec = vec        # np.ndarray for A/B; dict[int, float] for M

    def copy(self) -> "_Val":
        v = self.vec.copy() if isinstance(self.vec, np.ndarray) else dict(self.vec)
        return _Val(self.kind, v)


class _Cell:
    """A preallocated destination (``np.empty``)."""

    __slots__ = ("val",)

    def __init__(self) -> None:
        self.val: _Val | None = None


class _CHolder:
    """The result matrix C: one slot per output block."""

    __slots__ = ("slots",)

    def __init__(self, n: int) -> None:
        self.slots: list[_Val | None] = [None] * n


class _CSlot:
    __slots__ = ("holder", "index")

    def __init__(self, holder: _CHolder, index: int) -> None:
        self.holder = holder
        self.index = index


class _StreamRows:
    """Result of ``runtime.streaming_combine``: one chain row per rank."""

    __slots__ = ("space", "rows")

    def __init__(self, space: str, rows: np.ndarray) -> None:
        self.space = space
        self.rows = rows      # (R, nbase) effective chain matrix


class _Abort(Exception):
    """Raised when interpretation cannot proceed for this function."""


def _call_name(node: ast.Call) -> str:
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        base = f.value
        if isinstance(base, ast.Name):
            return f"{base.id}.{f.attr}"
        return f"?.{f.attr}"
    return "?"


def _const_num(node: ast.expr) -> float | None:
    """Evaluate a numeric literal, allowing a leading unary minus."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_num(node.operand)
        return None if inner is None else -inner
    return None


class _Interp:
    """Abstract interpreter for one generated core function."""

    def __init__(self, fn: ast.FunctionDef, alg, consts: dict,
                 arrays: dict, where: str) -> None:
        self.fn = fn
        self.alg = alg
        self.consts = consts            # module ints: M, K, N, RANK
        self.arrays = arrays            # module _S_DEFS/_S_CHAINS/... literals
        self.where = where
        self.findings: list[Finding] = []
        self.env: dict[str, Any] = {}
        self.products: list[tuple[np.ndarray, np.ndarray]] = []
        self.result: _CHolder | None = None
        m, k, n = alg.m, alg.k, alg.n
        self.na, self.nb, self.nc = m * k, k * n, m * n

    # -- reporting ---------------------------------------------------------

    def _find(self, code: str, node: ast.AST | None, msg: str, **detail) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(Finding(
            "symbolic", code, f"{self.where}:{line}", msg, dict(detail)))

    def _abort(self, code: str, node: ast.AST | None, msg: str) -> None:
        self._find(code, node, msg)
        raise _Abort(msg)

    # -- entry -------------------------------------------------------------

    def run(self) -> None:
        params = [a.arg for a in self.fn.args.args]
        self.env[params[0]] = _Input("A")
        self.env[params[1]] = _Input("B")
        for extra in params[2:]:
            self.env[extra] = _OPAQUE
        try:
            self._exec_body(self.fn.body)
        except _Abort:
            return
        self._check()

    def _check(self) -> None:
        if self.result is None:
            self._find("SYM-PARSE", self.fn,
                       "core never produced a result matrix")
            return
        if len(self.products) != self.alg.rank:
            self._find("SYM-RANK", self.fn,
                       f"core performs {len(self.products)} recursive products,"
                       f" scheme rank is {self.alg.rank}")
        slots = self.result.slots
        bad = [i for i, s in enumerate(slots) if s is None]
        if bad:
            self._find("SYM-CBLOCK", self.fn,
                       f"output block(s) {bad} never written")
            return
        T = np.zeros((self.na, self.nb, self.nc))
        for ic, comb in enumerate(slots):
            if comb.kind != "M":
                self._find("SYM-PARSE", self.fn,
                           f"output block {ic} is not a combination of products")
                return
            for p, w in comb.vec.items():
                a_vec, b_vec = self.products[p]
                T[:, :, ic] += w * np.outer(a_vec, b_vec)
        U, V, W = self.alg.U, self.alg.V, self.alg.W
        T_scheme = np.einsum("ir,jr,kr->ijk", U, V, W)
        scale = max(1.0, float(np.abs(T_scheme).max()))
        err = np.abs(T - T_scheme)
        worst = float(err.max())
        if worst > TENSOR_RTOL * scale:
            ia, ib, ic = np.unravel_index(int(err.argmax()), err.shape)
            self._find(
                "SYM-TENSOR", self.fn,
                "recovered bilinear form differs from the [U,V,W] scheme: "
                f"T[A{ia},B{ib},C{ic}] = {T[ia, ib, ic]:g}, "
                f"scheme says {T_scheme[ia, ib, ic]:g} "
                f"(max |delta| = {worst:g})",
                max_abs_error=worst)

    # -- statements --------------------------------------------------------

    def _exec_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt)
        elif isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Call):
                self._exec_call_stmt(stmt.value)
            elif not isinstance(stmt.value, ast.Constant):
                self._abort("SYM-PARSE", stmt, "unexpected expression statement")
        elif isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    self.env.pop(t.id, None)
        elif isinstance(stmt, ast.Return):
            self._exec_return(stmt)
        else:
            self._abort("SYM-PARSE", stmt,
                        f"statement form {type(stmt).__name__} is outside the"
                        " emission contract")

    def _exec_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            self._abort("SYM-PARSE", stmt, "chained assignment not in contract")
        target = stmt.targets[0]
        if isinstance(target, ast.Tuple):
            # p, q = A.shape  -- scalar bookkeeping
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.env[elt.id] = _OPAQUE
            return
        if isinstance(target, ast.Subscript):
            # C0[:] = expr  (pairwise into-view store)
            base = target.value
            if not isinstance(base, ast.Name):
                self._abort("SYM-PARSE", stmt, "unsupported subscript store")
            dest = self.env.get(base.id)
            val = self._eval_store_value(stmt.value, stmt)
            self._store(dest, val, stmt)
            return
        if not isinstance(target, ast.Name):
            self._abort("SYM-PARSE", stmt, "unsupported assignment target")
        name = target.id
        value = stmt.value
        # block view:  A3 = A[1*bp:2*bp, 1*bq:2*bq]
        if isinstance(value, ast.Subscript):
            obj = self._eval(value, stmt)
            self.env[name] = obj
            return
        self.env[name] = self._eval(value, stmt)

    def _eval_store_value(self, node: ast.expr, ctx: ast.AST) -> _Val:
        # C0[:] = 0.0  zeroes an output block that no product reaches
        if isinstance(node, ast.Constant) and node.value == 0:
            return _Val("M", {})
        return self._as_val(self._eval(node, ctx), ctx)

    def _exec_return(self, stmt: ast.Return) -> None:
        v = stmt.value
        if isinstance(v, ast.Name):
            obj = self.env.get(v.id)
            if isinstance(obj, _CHolder):
                self.result = obj
                return
            self._abort("SYM-PARSE", stmt, f"returning non-result {v.id!r}")
        if isinstance(v, ast.Call) and _call_name(v) == "runtime.streaming_output":
            self._streaming_output(v, stmt)
            return
        self._abort("SYM-PARSE", stmt, "unsupported return value")

    # -- calls as statements ----------------------------------------------

    def _exec_call_stmt(self, call: ast.Call) -> None:
        name = _call_name(call)
        if name.startswith("np.") and name.split(".", 1)[1] in _UFUNC_STORES:
            self._exec_ufunc(name.split(".", 1)[1], call)
            return
        if name == "runtime.axpy":
            dest = self._dest(call.args[0], call)
            cur = self._load(call.args[0], call)
            src = self._as_val(self._eval(call.args[1], call), call)
            coeff = _const_num(call.args[2])
            if coeff is None:
                self._abort("SYM-PARSE", call, "axpy coefficient not literal")
            self._store(dest, self._lin(cur, src, coeff, call), call)
            return
        self._abort("SYM-PARSE", call,
                    f"call {name!r} is outside the emission contract")

    def _exec_ufunc(self, op: str, call: ast.Call) -> None:
        out = None
        for kw in call.keywords:
            if kw.arg == "out":
                out = kw.value
        if op == "copyto":
            dest_node, src = call.args[0], call.args[1]
            val = self._as_val(self._eval(src, call), call).copy()
        elif op == "negative":
            dest_node = out
            val = self._scale(self._as_val(self._eval(call.args[0], call), call),
                              -1.0)
        elif op == "multiply":
            dest_node = out
            coeff = _const_num(call.args[1])
            if coeff is None:
                self._abort("SYM-PARSE", call, "multiply coefficient not literal")
            val = self._scale(self._as_val(self._eval(call.args[0], call), call),
                              coeff)
        elif op in ("add", "subtract"):
            dest_node = out
            a = self._as_val(self._eval(call.args[0], call), call)
            b = self._as_val(self._eval(call.args[1], call), call)
            val = self._lin(a, b, 1.0 if op == "add" else -1.0, call)
        else:  # pragma: no cover - _UFUNC_STORES is closed
            self._abort("SYM-PARSE", call, f"ufunc {op!r} not in contract")
        if dest_node is None:
            self._abort("SYM-PARSE", call, f"np.{op} without destination")
        dest = self._dest(dest_node, call)
        self._store(dest, val, call)

    # -- loads / stores ----------------------------------------------------

    def _dest(self, node: ast.expr, ctx: ast.AST) -> Any:
        """Resolve a store destination (cell or C slot)."""
        if isinstance(node, ast.Name):
            obj = self.env.get(node.id)
            if obj is None:
                self._abort("SYM-UNINIT", ctx,
                            f"store into undefined name {node.id!r}")
            return obj
        if isinstance(node, ast.Subscript):
            return self._eval(node, ctx)
        self._abort("SYM-PARSE", ctx, "unsupported store destination")

    def _store(self, dest: Any, val: _Val, ctx: ast.AST) -> None:
        if isinstance(dest, _Cell):
            dest.val = val
        elif isinstance(dest, _CSlot):
            dest.holder.slots[dest.index] = val
        else:
            self._abort("SYM-PARSE", ctx,
                        f"store into non-buffer {type(dest).__name__}")

    def _load(self, node: ast.expr, ctx: ast.AST) -> _Val:
        return self._as_val(self._eval(node, ctx), ctx)

    def _as_val(self, obj: Any, ctx: ast.AST) -> _Val:
        if isinstance(obj, _Val):
            return obj
        if isinstance(obj, _Cell):
            if obj.val is None:
                self._abort("SYM-UNINIT", ctx, "read of unwritten buffer")
            return obj.val
        if isinstance(obj, _CSlot):
            v = obj.holder.slots[obj.index]
            if v is None:
                self._abort("SYM-UNINIT", ctx,
                            f"read of unwritten output block {obj.index}")
            return v
        self._abort("SYM-PARSE", ctx,
                    f"expected an array value, got {type(obj).__name__}")

    # -- linear algebra over abstract values -------------------------------

    def _unit(self, space: str, index: int) -> _Val:
        n = self.na if space == "A" else self.nb
        v = np.zeros(n)
        v[index] = 1.0
        return _Val(space, v)

    def _scale(self, v: _Val, c: float) -> _Val:
        if isinstance(v.vec, np.ndarray):
            return _Val(v.kind, c * v.vec)
        return _Val(v.kind, {p: c * w for p, w in v.vec.items()})

    def _lin(self, a: _Val, b: _Val, c: float, ctx: ast.AST) -> _Val:
        """a + c * b"""
        if a.kind != b.kind:
            self._abort("SYM-OPERANDS", ctx,
                        f"mixing {a.kind}-side and {b.kind}-side values in"
                        " one chain")
        if isinstance(a.vec, np.ndarray):
            return _Val(a.kind, a.vec + c * b.vec)
        out = dict(a.vec)
        for p, w in b.vec.items():
            out[p] = out.get(p, 0.0) + c * w
        return _Val(a.kind, out)

    # -- expressions -------------------------------------------------------

    def _eval(self, node: ast.expr, ctx: ast.AST) -> Any:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.consts:
                return self.consts[node.id]
            if node.id in self.arrays:
                return self.arrays[node.id]
            self._abort("SYM-UNINIT", ctx, f"read of undefined name {node.id!r}")
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, ctx)
            if node.attr == "shape":
                return _OPAQUE
            self._abort("SYM-PARSE", ctx, f"attribute .{node.attr} not in contract")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self._eval(node.operand, ctx)
            if isinstance(inner, (int, float)):
                return -inner
            return self._scale(self._as_val(inner, ctx), -1.0)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, ctx)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, ctx)
        if isinstance(node, ast.Call):
            return self._eval_call(node, ctx)
        if isinstance(node, ast.List):
            return [self._eval(e, ctx) for e in node.elts]
        if isinstance(node, ast.Tuple):
            return tuple(self._eval(e, ctx) for e in node.elts)
        self._abort("SYM-PARSE", ctx,
                    f"expression form {type(node).__name__} outside contract")

    def _eval_binop(self, node: ast.BinOp, ctx: ast.AST) -> Any:
        left = self._eval(node.left, ctx)
        right = self._eval(node.right, ctx)
        scalars = (int, float, _Opaque)
        if isinstance(left, scalars) and isinstance(right, scalars):
            return _OPAQUE      # bp = p // M, steps - 1: never a coefficient
        if isinstance(node.op, ast.Mult):
            if isinstance(left, (int, float)):
                return self._scale(self._as_val(right, ctx), float(left))
            if isinstance(right, (int, float)):
                return self._scale(self._as_val(left, ctx), float(right))
        if isinstance(node.op, (ast.Add, ast.Sub)):
            a = self._as_val(left, ctx)
            b = self._as_val(right, ctx)
            return self._lin(a, b, 1.0 if isinstance(node.op, ast.Add) else -1.0,
                             ctx)
        self._abort("SYM-PARSE", ctx, "arithmetic form outside contract")

    def _eval_subscript(self, node: ast.Subscript, ctx: ast.AST) -> Any:
        base = self._eval(node.value, ctx)
        if isinstance(base, _Input):
            return self._block_view(base, node, ctx)
        if isinstance(base, _CHolder):
            idx = self._c_block_index(node, ctx)
            return _CSlot(base, idx)
        if isinstance(base, _StreamRows):
            i = node.slice
            if not (isinstance(i, ast.Constant) and isinstance(i.value, int)):
                self._abort("SYM-PARSE", ctx, "expected a literal chain index")
            return _Val(base.space, base.rows[i.value].copy())
        if isinstance(base, _Opaque):
            return _OPAQUE
        self._abort("SYM-PARSE", ctx, "subscript of unsupported value")

    def _slice_block(self, sl: ast.expr, ctx: ast.AST) -> tuple[int, str]:
        """Parse ``rr*bvar:(rr+1)*bvar`` -> (rr, bvar)."""
        if not isinstance(sl, ast.Slice) or sl.step is not None:
            self._abort("SYM-BLOCK", ctx, "non-block slice on input matrix")

        def side(expr: ast.expr) -> tuple[int, str]:
            if (isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult)
                    and isinstance(expr.left, ast.Constant)
                    and isinstance(expr.right, ast.Name)):
                return int(expr.left.value), expr.right.id
            self._abort("SYM-BLOCK", ctx, "block slice bound is not c*bvar")

        lo, lo_var = side(sl.lower)
        hi, hi_var = side(sl.upper)
        if hi != lo + 1 or hi_var != lo_var:
            self._abort("SYM-BLOCK", ctx,
                        f"block slice spans {lo}*{lo_var}:{hi}*{hi_var},"
                        " expected one block")
        return lo, lo_var

    def _block_view(self, inp: _Input, node: ast.Subscript,
                    ctx: ast.AST) -> _Val:
        sl = node.slice
        if not (isinstance(sl, ast.Tuple) and len(sl.elts) == 2):
            self._abort("SYM-BLOCK", ctx, "input matrix sliced non-2d")
        rr, rvar = self._slice_block(sl.elts[0], ctx)
        cc, cvar = self._slice_block(sl.elts[1], ctx)
        m, k, n = self.alg.m, self.alg.k, self.alg.n
        if inp.space == "A":
            want, rows, cols = ("bp", "bq"), m, k
        else:
            want, rows, cols = ("bq", "br"), k, n
        if (rvar, cvar) != want or not (0 <= rr < rows and 0 <= cc < cols):
            self._abort("SYM-BLOCK", ctx,
                        f"{inp.space} block [{rr}*{rvar}, {cc}*{cvar}] is out"
                        f" of the {rows}x{cols} grid")
        return self._unit(inp.space, rr * cols + cc)

    def _c_block_index(self, node: ast.Subscript, ctx: ast.AST) -> int:
        sl = node.slice
        if isinstance(sl, ast.Slice):       # C0[:] = ... handled via _CSlot
            self._abort("SYM-PARSE", ctx, "bare slice store on result matrix")
        if not (isinstance(sl, ast.Tuple) and len(sl.elts) == 2):
            self._abort("SYM-BLOCK", ctx, "result matrix sliced non-2d")
        rr, rvar = self._slice_block(sl.elts[0], ctx)
        cc, cvar = self._slice_block(sl.elts[1], ctx)
        m, n = self.alg.m, self.alg.n
        if (rvar, cvar) != ("bp", "br") or not (0 <= rr < m and 0 <= cc < n):
            self._abort("SYM-BLOCK", ctx,
                        f"C block [{rr}*{rvar}, {cc}*{cvar}] is out of the"
                        f" {m}x{n} grid")
        return rr * n + cc

    # -- calls as expressions ----------------------------------------------

    def _eval_call(self, node: ast.Call, ctx: ast.AST) -> Any:
        name = _call_name(node)
        if name.endswith(".copy") and not name.startswith("np."):
            recv = self._eval(node.func.value, ctx)
            return self._as_val(recv, ctx).copy()
        if name == "np.result_type":
            return _OPAQUE
        if name == "np.empty":
            return self._alloc(node, ctx)
        if name == "_run":
            return self._run_product(node)
        if name == "runtime.streaming_combine":
            return self._streaming_combine(node, ctx)
        if name == "runtime.streaming_output":
            self._abort("SYM-PARSE", ctx,
                        "streaming_output outside return position")
        self._abort("SYM-PARSE", ctx,
                    f"call {name!r} is outside the emission contract")

    def _alloc(self, node: ast.Call, ctx: ast.AST) -> Any:
        shape = node.args[0]
        if not isinstance(shape, ast.Tuple):
            self._abort("SYM-PARSE", ctx, "allocation with non-tuple shape")
        if len(shape.elts) != 2:
            self._abort("SYM-PARSE", ctx, "allocation shape outside contract")
        d0, d1 = shape.elts
        if (isinstance(d0, ast.Name) and d0.id == "p"
                and isinstance(d1, ast.Name) and d1.id == "r"):
            # C = np.empty((p, r), _dt)  -- the result matrix
            holder = _CHolder(self.nc)
            self.result = holder
            return holder
        if isinstance(d0, ast.Name) and d0.id in ("bp", "bq", "br"):
            # (bp, bq) / (bq, br) / (bp, br)  -- one chain destination
            return _Cell()
        self._abort("SYM-PARSE", ctx, "allocation shape outside contract")

    def _run_product(self, node: ast.Call) -> _Val:
        args = node.args
        a = self._as_val(self._eval(args[0], node), node)
        b = self._as_val(self._eval(args[1], node), node)
        if a.kind != "A" or b.kind != "B":
            self._find("SYM-OPERANDS", node,
                       f"recursive product fed ({a.kind}-side, {b.kind}-side)"
                       " operands; expected (A-side, B-side)")
            raise _Abort("operand sides swapped")
        idx = len(self.products)
        self.products.append((a.vec.copy(), b.vec.copy()))
        return _Val("M", {idx: 1.0})

    # -- streaming runtime models ------------------------------------------

    def _effective_rows(self, chains: np.ndarray, defs, nbase: int,
                        ctx: ast.AST) -> np.ndarray:
        if chains.shape[1] == nbase:
            return chains.copy()
        ndefs = chains.shape[1] - nbase
        if defs is None or np.asarray(defs).shape[0] != ndefs:
            self._abort("SYM-PARSE", ctx,
                        "chain matrix width disagrees with defs matrix")
        return chains[:, :nbase] + chains[:, nbase:] @ np.asarray(defs)

    def _streaming_combine(self, node: ast.Call, ctx: ast.AST) -> _StreamRows:
        inp = self._eval(node.args[0], ctx)
        if not isinstance(inp, _Input):
            self._abort("SYM-PARSE", ctx, "streaming_combine of non-input")
        defs = self._eval(node.args[3], ctx)
        chains = self._eval(node.args[4], ctx)
        nbase = self.na if inp.space == "A" else self.nb
        rows = self._effective_rows(np.asarray(chains), defs, nbase, ctx)
        return _StreamRows(inp.space, rows)

    def _combine_products(self, rows: np.ndarray,
                          prods: list[_Val], ctx: ast.AST) -> list[_Val]:
        out = []
        for i in range(rows.shape[0]):
            comb: dict[int, float] = {}
            for j, mv in enumerate(prods):
                c = rows[i, j]
                if c == 0.0:
                    continue
                for p, w in mv.vec.items():
                    comb[p] = comb.get(p, 0.0) + c * w
            out.append(_Val("M", comb))
        return out

    def _streaming_output(self, node: ast.Call, ctx: ast.AST) -> None:
        prods = [self._as_val(v, ctx) for v in self._eval(node.args[0], ctx)]
        defs = self._eval(node.args[1], ctx)
        chains = self._eval(node.args[2], ctx)
        rows = self._effective_rows(np.asarray(chains), defs, self.alg.rank,
                                    ctx)
        holder = _CHolder(self.nc)
        for i, v in enumerate(self._combine_products(rows, prods, ctx)):
            holder.slots[i] = v
        self.result = holder


# -- module-level driver ----------------------------------------------------


def _module_info(tree: ast.Module, where: str,
                 findings: list[Finding]) -> tuple[dict, dict, dict | None]:
    """Extract module consts (M/K/N/RANK), array literals and _SCHEME."""
    consts: dict[str, int] = {}
    arrays: dict[str, Any] = {}
    scheme: dict | None = None
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        t = stmt.targets[0]
        if isinstance(t, ast.Tuple):
            names = [e.id for e in t.elts if isinstance(e, ast.Name)]
            if names == ["M", "K", "N", "RANK"]:
                try:
                    vals = ast.literal_eval(stmt.value)
                    consts.update(dict(zip(names, vals)))
                except (ValueError, SyntaxError):
                    findings.append(Finding(
                        "symbolic", "SYM-META", where,
                        "M, K, N, RANK line is not a literal tuple"))
            continue
        if not isinstance(t, ast.Name):
            continue
        if t.id == "_SCHEME":
            try:
                scheme = ast.literal_eval(stmt.value)
            except (ValueError, SyntaxError):
                findings.append(Finding(
                    "symbolic", "SYM-META", where,
                    "_SCHEME is not a literal dict"))
        elif t.id.startswith(("_S_", "_T_", "_C_")):
            v = stmt.value
            if isinstance(v, ast.Constant) and v.value is None:
                arrays[t.id] = None
            elif isinstance(v, ast.Call) and _call_name(v) == "np.array":
                try:
                    arrays[t.id] = np.asarray(ast.literal_eval(v.args[0]))
                except (ValueError, SyntaxError):
                    findings.append(Finding(
                        "symbolic", "SYM-META", where,
                        f"{t.id} is not a literal array"))
    return consts, arrays, scheme


def verify_source(source: str, algorithm=None,
                  where: str = "<generated>") -> list[Finding]:
    """Verify one generated module's source against its ``[U,V,W]`` scheme.

    ``algorithm`` defaults to the catalog entry named by the module's
    ``_SCHEME`` metadata.  Returns the findings (empty == proven).
    """
    findings: list[Finding] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding("symbolic", "SYM-PARSE", where,
                        f"module does not parse: {exc}")]
    consts, arrays, scheme = _module_info(tree, where, findings)
    if scheme is None:
        findings.append(Finding(
            "symbolic", "SYM-META", where,
            "module carries no _SCHEME metadata (regenerate with the"
            " current repro.codegen.generator)"))
    if algorithm is None:
        if scheme is None:
            return findings
        from repro.algorithms.catalog import get_algorithm

        try:
            algorithm = get_algorithm(scheme["algorithm"])
        except (KeyError, ValueError) as exc:
            findings.append(Finding(
                "symbolic", "SYM-META", where,
                f"_SCHEME names unknown algorithm: {exc}"))
            return findings
    if scheme is not None:
        mkn = (algorithm.m, algorithm.k, algorithm.n)
        if tuple(scheme.get("base_case", ())) != mkn or \
                scheme.get("rank") != algorithm.rank:
            findings.append(Finding(
                "symbolic", "SYM-META", where,
                f"_SCHEME says base {scheme.get('base_case')} rank"
                f" {scheme.get('rank')}, catalog scheme is {mkn} rank"
                f" {algorithm.rank}"))
        from repro.codegen.generator import fingerprint

        expect = fingerprint(algorithm, scheme.get("strategy", "?"),
                             bool(scheme.get("cse")),
                             bool(scheme.get("pipe_scalars", True)))
        if scheme.get("fingerprint") != expect:
            findings.append(Finding(
                "symbolic", "SYM-META", where,
                "_SCHEME fingerprint is stale: module was generated from a"
                " scheme that no longer matches the catalog entry"))
    if (consts.get("M"), consts.get("K"), consts.get("N")) != \
            (algorithm.m, algorithm.k, algorithm.n) or \
            consts.get("RANK") != algorithm.rank:
        findings.append(Finding(
            "symbolic", "SYM-META", where,
            f"module constants M,K,N,RANK = {consts} disagree with scheme"))
        return findings
    fn = next((fn for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "_core"),
              None)
    if fn is None:
        findings.append(Finding(
            "symbolic", "SYM-PARSE", where, "module has no _core"))
        return findings
    interp = _Interp(fn, algorithm, consts, arrays, f"{where}._core")
    interp.run()
    findings.extend(interp.findings)
    return findings


def verify_algorithm(name_or_alg, strategy: str, cse: bool,
                     pipe_scalars: bool = True) -> list[Finding]:
    """Generate and symbolically verify one catalog entry configuration."""
    from repro.algorithms.catalog import get_algorithm
    from repro.codegen.generator import generate_source

    alg = (get_algorithm(name_or_alg) if isinstance(name_or_alg, str)
           else name_or_alg)
    where = f"{alg.name}[{strategy},cse={cse}]"
    src = generate_source(alg, strategy, cse, pipe_scalars)
    return verify_source(src, alg, where=where)


def verify_catalog(names=None, strategies=None,
                   cse_options=(False, True)) -> tuple[int, list[Finding]]:
    """Sweep every catalog entry x strategy x cse; returns (checked, findings)."""
    from repro.algorithms.catalog import list_algorithms
    from repro.codegen.strategies import STRATEGIES

    if names is None:
        names = list_algorithms(include_apa=True)
    if strategies is None:
        strategies = STRATEGIES
    findings: list[Finding] = []
    checked = 0
    for name in names:
        for strategy in strategies:
            for cse in cse_options:
                findings.extend(verify_algorithm(name, strategy, cse))
                checked += 1
    return checked, findings
