"""Arena-discipline checker for generated kernels and the source tree.

The workspace protocol (``repro.core.workspace``) is a convention: every
``ws.take`` happens inside a ``mark``/``release`` pair, no view taken in
a scope outlives that scope's ``release``, and the takes a generated
``_core_ws`` performs fit inside the ``codegen_footprint`` budget that
sizes the arena.  PRs 3-8 enforce this dynamically (overflow warnings,
tracking allocators); this pass enforces it *statically* on the AST:

- ``ARENA-UNRELEASED``   -- a mark is never released before return;
- ``ARENA-RELEASE-ORDER``-- releases happen out of LIFO order;
- ``ARENA-ORPHAN-RELEASE`` -- a release names no live mark;
- ``ARENA-UNSCOPED-TAKE`` -- a take outside any mark scope;
- ``ARENA-ESCAPE``       -- an arena view (or a view derived from one,
  e.g. the ``_MM`` slab row a recursive call writes into) is read after
  its scope was released, or returned to the caller;
- ``ARENA-FOOTPRINT``    -- the statically summed takes of one recursion
  level exceed ``codegen_footprint`` for that configuration.

The source-tree half checks every hand-written function for balanced
``x = <arena>.mark()`` / ``<arena>.release(x)`` pairs.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

from repro.analyze.base import Finding
from repro.core.workspace import _align_up


def _call_name(node: ast.Call) -> str:
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        return f"{f.value.id}.{f.attr}"
    return "?"


def _loads(node: ast.AST) -> set[str]:
    """Every Name read inside ``node``."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


class _ScopeChecker:
    """Walk one ``_core_ws`` body tracking the mark stack and view scopes."""

    def __init__(self, where: str, sim_env: dict | None = None) -> None:
        self.where = where
        self.findings: list[Finding] = []
        self.stack: list[str] = []          # live mark variable names
        self.tags: dict[str, int] = {}      # arena view name -> depth at take
        self.dead: set[str] = set()         # views whose scope was released
        # footprint simulation (optional): bump pointer in bytes
        self.sim = sim_env
        self.offset = 0
        self.peak = 0
        self.saved: list[int] = []          # offset at each mark

    def _find(self, code: str, node: ast.AST, msg: str) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(Finding(
            "arena", code, f"{self.where}:{line}", msg))

    # -- bump-pointer simulation ------------------------------------------

    def _sim_take(self, node: ast.Call, scratch: bool) -> None:
        if self.sim is None:
            return
        try:
            arg = ast.Expression(node.args[0])
            ast.fix_missing_locations(arg)
            v = eval(compile(arg, "<take>", "eval"),  # noqa: S307 - our own AST
                     {"__builtins__": {}}, dict(self.sim))
        except Exception:
            return
        if scratch:
            nbytes = int(v)
        else:
            dt = np.dtype(np.float64)
            nbytes = int(np.prod(v)) * dt.itemsize
        self.offset += _align_up(nbytes)
        self.peak = max(self.peak, self.offset)

    # -- statement walk ----------------------------------------------------

    def check_reads(self, node: ast.AST) -> None:
        for name in _loads(node) & self.dead:
            self._find("ARENA-ESCAPE", node,
                       f"arena view {name!r} is read after its mark scope"
                       " was released")

    def visit_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.visit(stmt)

    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            name = _call_name(stmt.value)
            target = stmt.targets[0]
            tname = target.id if isinstance(target, ast.Name) else None
            if name == "ws.mark":
                if tname is None:
                    self._find("ARENA-ORPHAN-RELEASE", stmt,
                               "mark not bound to a name")
                    return
                self.stack.append(tname)
                self.saved.append(self.offset)
                return
            if name in ("ws.take", "ws.take_scratch"):
                self.check_reads(stmt.value)
                if not self.stack:
                    self._find("ARENA-UNSCOPED-TAKE", stmt,
                               "take outside any mark/release scope")
                if tname is not None:
                    self.tags[tname] = len(self.stack)
                self._sim_take(stmt.value, name.endswith("take_scratch"))
                return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call) \
                and _call_name(stmt.value) == "ws.release":
            arg = stmt.value.args[0]
            var = arg.id if isinstance(arg, ast.Name) else None
            if var is None or var not in self.stack:
                self._find("ARENA-ORPHAN-RELEASE", stmt,
                           f"release of {var!r} which is not a live mark")
                return
            if self.stack[-1] != var:
                self._find("ARENA-RELEASE-ORDER", stmt,
                           f"release of {var!r} is not LIFO (top of stack is"
                           f" {self.stack[-1]!r})")
            # pop down to and including var
            while self.stack:
                top = self.stack.pop()
                off = self.saved.pop()
                self.offset = off
                if top == var:
                    break
            depth = len(self.stack)
            for vname, tag in list(self.tags.items()):
                if tag > depth:
                    self.dead.add(vname)
                    del self.tags[vname]
            return
        if isinstance(stmt, ast.For):
            self.check_reads(stmt.iter)
            self.visit_body(stmt.body)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.check_reads(stmt.value)
                for name in _loads(stmt.value) & set(self.tags):
                    self._find("ARENA-ESCAPE", stmt,
                               f"arena view {name!r} escapes via return")
            if self.stack:
                self._find("ARENA-UNRELEASED", stmt,
                           f"mark(s) {self.stack!r} never released before"
                           " return")
            return
        # generic statement: escape check on reads, alias propagation
        self.check_reads(stmt)
        if isinstance(stmt, ast.Assign):
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                tag = self._alias_tag(stmt.value)
                if tag is not None:
                    self.tags[target.id] = tag
                else:
                    self.tags.pop(target.id, None)

    def _alias_tag(self, value: ast.expr) -> int | None:
        """Scope tag a fresh binding inherits from the arena views it views."""
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name == "_run_ws" and len(value.args) >= 5:
                # the result aliases the out slab row (5th positional arg)
                refs = _loads(value.args[4]) & set(self.tags)
                return max((self.tags[r] for r in refs), default=None)
            if name == "runtime.streaming_combine":
                has_ws = any(kw.arg == "workspace" for kw in value.keywords)
                return len(self.stack) if has_ws else None
        refs = _loads(value) & set(self.tags)
        if refs:
            return max(self.tags[r] for r in refs)
        return None


def check_core_ws(source: str, algorithm=None, strategy: str | None = None,
                  cse: bool | None = None,
                  where: str = "<generated>") -> list[Finding]:
    """Check one generated module's ``_core_ws`` for arena discipline."""
    findings: list[Finding] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding("arena", "ARENA-PARSE", where,
                        f"module does not parse: {exc}")]
    consts: dict[str, int] = {}
    scheme = None
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            t = stmt.targets[0]
            if isinstance(t, ast.Tuple):
                names = [e.id for e in t.elts if isinstance(e, ast.Name)]
                if names == ["M", "K", "N", "RANK"]:
                    try:
                        consts.update(dict(zip(names,
                                               ast.literal_eval(stmt.value))))
                    except (ValueError, SyntaxError):
                        pass
            elif isinstance(t, ast.Name) and t.id == "_SCHEME":
                try:
                    scheme = ast.literal_eval(stmt.value)
                except (ValueError, SyntaxError):
                    pass
    fn = next((f for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name == "_core_ws"),
              None)
    if fn is None:
        return [Finding("arena", "ARENA-PARSE", where,
                        "module has no _core_ws")]

    sim_env = None
    budget = None
    if consts and {"M", "K", "N", "RANK"} <= set(consts):
        m, k, n = consts["M"], consts["K"], consts["N"]
        blk = 8
        p, q, r = m * blk, k * blk, n * blk
        dt = np.dtype(np.float64)
        sim_env = {"M": m, "K": k, "N": n, "RANK": consts["RANK"],
                   "p": p, "q": q, "r": r,
                   "bp": blk, "bq": blk, "br": blk,
                   "_dt": dt, "_dta": dt, "_dtb": dt, "max": max}
        if algorithm is None and scheme is not None:
            from repro.algorithms.catalog import get_algorithm

            try:
                algorithm = get_algorithm(scheme["algorithm"])
                strategy = scheme.get("strategy")
                cse = scheme.get("cse")
            except (KeyError, ValueError):
                algorithm = None
        if algorithm is not None and strategy is not None and cse is not None:
            from repro.core.workspace import codegen_footprint

            budget = codegen_footprint(algorithm, strategy, bool(cse),
                                       (p, q, r), dt, steps=1)

    checker = _ScopeChecker(f"{where}._core_ws", sim_env)
    checker.visit_body(fn.body)
    findings.extend(checker.findings)
    if budget is not None and checker.peak > budget:
        findings.append(Finding(
            "arena", "ARENA-FOOTPRINT", f"{where}._core_ws",
            f"statically summed takes peak at {checker.peak} bytes for shape"
            f" {sim_env['p']}x{sim_env['q']}x{sim_env['r']}, exceeding the"
            f" codegen_footprint budget of {budget} bytes",
            {"peak": checker.peak, "budget": int(budget)}))
    return findings


def check_catalog_arena(names=None, strategies=None,
                        cse_options=(False, True)) -> tuple[int, list[Finding]]:
    """Arena-check the generated ``_core_ws`` of every catalog config."""
    from repro.algorithms.catalog import get_algorithm, list_algorithms
    from repro.codegen.generator import generate_source
    from repro.codegen.strategies import STRATEGIES

    if names is None:
        names = list_algorithms(include_apa=True)
    if strategies is None:
        strategies = STRATEGIES
    findings: list[Finding] = []
    checked = 0
    for name in names:
        alg = get_algorithm(name)
        for strategy in strategies:
            for cse in cse_options:
                src = generate_source(alg, strategy, cse)
                findings.extend(check_core_ws(
                    src, alg, strategy, cse,
                    where=f"{name}[{strategy},cse={cse}]"))
                checked += 1
    return checked, findings


# -- hand-written tree: balanced mark/release per function ------------------


def _src_root() -> Path:
    return Path(__file__).resolve().parent.parent


def check_function_marks(fn: ast.FunctionDef, where: str) -> list[Finding]:
    """Every ``x = <obj>.mark()`` must see ``<obj>.release(x)`` in the same
    function (``try/finally`` bodies included -- this is a reachability
    check on names, not paths)."""
    findings = []
    marks: dict[str, int] = {}
    released: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            f = node.value.func
            if isinstance(f, ast.Attribute) and f.attr == "mark" \
                    and not node.value.args:
                t = node.targets[0]
                if isinstance(t, ast.Name):
                    marks[t.id] = node.lineno
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "release":
                for a in node.args:
                    if isinstance(a, ast.Name):
                        released.add(a.id)
    for name, line in marks.items():
        if name not in released:
            findings.append(Finding(
                "arena", "ARENA-UNRELEASED", f"{where}:{line}",
                f"mark {name!r} in {fn.name}() has no matching release"))
    return findings


def check_tree(root: Path | None = None) -> tuple[int, list[Finding]]:
    """Mark/release balance across the hand-written source tree."""
    root = root or _src_root()
    findings: list[Finding] = []
    checked = 0
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent)
        try:
            tree = ast.parse(path.read_text())
        except SyntaxError as exc:
            findings.append(Finding("arena", "ARENA-PARSE", str(rel),
                                    f"does not parse: {exc}"))
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                checked += 1
                findings.extend(check_function_marks(node, str(rel)))
    return checked, findings
