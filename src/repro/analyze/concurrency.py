"""Concurrency lint: every known piece of shared state has a named lock.

The tuner/arena/obs stack shares mutable state across threads -- dispatch's
per-thread arenas and worker pools, the plan cache's entry/failure ledgers, the
telemetry registry, fault-injection ledgers, the codegen module cache.  Each has exactly one lock that must guard its
mutations; holding that invariant by convention is how PRs 3-8 shipped,
and this pass mechanizes it: :data:`REGISTRY` names each shared object
and its lock, and the lint flags any mutation site reached outside a
``with <lock>`` block (``CONC-UNLOCKED``).

A mutation is: item assignment/deletion/augmented assignment through the
name, a mutating method call (``append``/``pop``/``update``/...), or a
``global`` rebind from function scope.  Module-level initialization,
``__init__`` construction of instance state, and functions whose name
ends in ``_locked`` (the must-hold-lock convention) are exempt.  Entries
with ``lock=None`` are *documented* lock-free (benign races, e.g. the
once-per-key warning set) and are skipped but kept in the registry so
the exemption is explicit and reviewed.

The second half is the hot-path allocation lint (``CONC-ALLOC``): inside
arena-served functions (a ``workspace``/``ws`` parameter, or a ``scratch``
buffer carved from one), every bare ``np.empty``/``np.zeros`` must sit
under an ``is None``/``is not None`` guard on the workspace or output --
an unconditional allocation there re-introduces exactly the per-call
heap traffic the arenas eliminated.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analyze.base import Finding

_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "remove", "setdefault", "update",
})


@dataclass(frozen=True)
class SharedState:
    """One registered shared object and the lock that must guard it."""

    module: str          # path relative to src/repro, e.g. "tuner/dispatch.py"
    name: str            # global name, or "self.<attr>" for instance state
    lock: str | None     # "with <lock>" expr that must enclose mutations
    note: str = ""


#: Known shared state across the stack.  Adding a new shared structure
#: without registering it here is the review-time failure mode this
#: registry exists to make visible.
REGISTRY: tuple[SharedState, ...] = (
    SharedState("tuner/dispatch.py", "_arenas", "_dispatch_lock",
                "thread -> its arena (weak keys); a thread reads only its "
                "own entry, lock-free"),
    SharedState("tuner/dispatch.py", "_reservation", None,
                "plan_footprint memo: functools.lru_cache locks itself"),
    SharedState("tuner/dispatch.py", "_dtype_name", None,
                "dtype-name memo: functools.lru_cache locks itself"),
    SharedState("tuner/dispatch.py", "_plain_blas", None,
                "trivial-stage plan memo: functools.lru_cache locks itself"),
    SharedState("tuner/dispatch.py", "_pools", "_dispatch_lock",
                "persistent worker pools"),
    SharedState("tuner/dispatch.py", "_default_cache", "_dispatch_lock",
                "lazily built shared PlanCache"),
    SharedState("tuner/dispatch.py", "_overflow_warned", None,
                "once-per-key warning set; duplicate warn is benign"),
    SharedState("tuner/cache.py", "self._entries", "self._lock",
                "plan cache entries"),
    SharedState("tuner/cache.py", "self._answers", "self._lock",
                "memoised get/nearest answers; read lock-free"),
    SharedState("tuner/cache.py", "self._failures", "self._lock",
                "quarantine failure ledger"),
    SharedState("tuner/cache.py", "_warned_paths", "_warned_lock",
                "once-per-path load warnings"),
    SharedState("obs/telemetry.py", "_counters", "_lock"),
    SharedState("obs/telemetry.py", "_gauges", "_lock"),
    SharedState("obs/telemetry.py", "_spans", "_lock"),
    SharedState("obs/telemetry.py", "_dispatch_ring", "_lock"),
    SharedState("guard/faults.py", "_specs", "_lock",
                "fault-injection specs"),
    SharedState("guard/faults.py", "_fired", "_lock",
                "fault-injection fire ledger"),
    SharedState("codegen/generator.py", "_MODULE_CACHE", "_compile_lock",
                "generated-module cache"),
    SharedState("codegen/cbackend.py", "_LIB_CACHE", "_lib_lock",
                "loaded shared-library cache"),
    SharedState("codegen/cbackend.py", "_CACHE_STATE", "_lib_lock",
                "resolved on-disk cache dir + warn-once flag"),
    SharedState("codegen/cbackend.py", "_CHAINS", "_lib_lock",
                "compiled kernels by emitted algorithm"),
    SharedState("codegen/cbackend.py", "_fallback_warned", None,
                "once-per-algorithm fallback warning set; duplicate "
                "warn is benign"),
)

#: Files whose arena-served functions get the allocation lint: the
#: interpreter that serves sequential NumPy plans (and the parallel DFS),
#: and the peeling fix-up every executor calls.
HOT_ALLOC_FILES = ("core/recursion.py", "util/matrices.py")


def _src_root() -> Path:
    return Path(__file__).resolve().parent.parent


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    out: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            out[child] = node
    return out


def _matches(expr: ast.expr, name: str) -> bool:
    if name.startswith("self."):
        attr = name.split(".", 1)[1]
        return (isinstance(expr, ast.Attribute) and expr.attr == attr
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self")
    return isinstance(expr, ast.Name) and expr.id == name


def _ancestors(node: ast.AST, parents: dict) -> list[ast.AST]:
    chain = []
    cur = parents.get(node)
    while cur is not None:
        chain.append(cur)
        cur = parents.get(cur)
    return chain


def _is_guarded(node: ast.AST, parents: dict, state: SharedState) -> bool:
    fn_seen = False
    for anc in _ancestors(node, parents):
        if isinstance(anc, ast.With):
            for item in anc.items:
                if _matches(item.context_expr, state.lock):
                    return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not fn_seen:
            fn_seen = True
            if anc.name.endswith("_locked"):
                return True
            if anc.name == "__init__" and state.name.startswith("self."):
                return True
    if not fn_seen:
        return True  # module-level statement: single-threaded import time
    return False


def _mutation_sites(tree: ast.Module, parents: dict,
                    state: SharedState) -> list[tuple[ast.AST, str]]:
    name = state.name
    sites: list[tuple[ast.AST, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Subscript) and _matches(t.value, name):
                    sites.append((node, "item assignment"))
                elif _matches(t, name):
                    if name.startswith("self."):
                        sites.append((node, "attribute rebind"))
                    else:
                        # global rebind counts only from function scope with
                        # a `global` declaration (module level is init)
                        fns = [a for a in _ancestors(node, parents)
                               if isinstance(a, ast.FunctionDef)]
                        if fns and any(
                                isinstance(s, ast.Global) and name in s.names
                                for fn in fns for s in ast.walk(fn)):
                            sites.append((node, "global rebind"))
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                if isinstance(t, ast.Subscript) and _matches(t.value, name):
                    sites.append((node, "item deletion"))
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in _MUTATORS \
                    and _matches(f.value, name):
                sites.append((node, f"mutating call .{f.attr}()"))
    return sites


def check_module_source(source: str, states: list[SharedState],
                        where: str) -> tuple[int, list[Finding]]:
    """Lint one module's source against a list of registry entries.

    Returns ``(mutation_sites_checked, findings)``.  Exposed separately so
    the mutation-testing suite can lint synthetic modules.
    """
    findings: list[Finding] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return 0, [Finding("concurrency", "CONC-PARSE", where,
                           f"does not parse: {exc}")]
    parents = _parents(tree)
    checked = 0
    for state in states:
        sites = _mutation_sites(tree, parents, state)
        checked += len(sites)
        if state.lock is None:
            continue
        for node, kind in sites:
            if not _is_guarded(node, parents, state):
                findings.append(Finding(
                    "concurrency", "CONC-UNLOCKED",
                    f"{where}:{getattr(node, 'lineno', 0)}",
                    f"{kind} on shared {state.name!r} outside"
                    f" `with {state.lock}`"
                    + (f" ({state.note})" if state.note else "")))
    return checked, findings


def _alloc_guarded(node: ast.AST, parents: dict) -> bool:
    for anc in _ancestors(node, parents):
        test = None
        if isinstance(anc, (ast.If, ast.IfExp)):
            test = anc.test
        elif isinstance(anc, ast.FunctionDef):
            break
        if test is not None and any(
                isinstance(n, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in n.ops)
                for n in ast.walk(test)):
            return True
    return False


def check_alloc_source(source: str, where: str) -> tuple[int, list[Finding]]:
    """Hot-path allocation lint over one module's arena-served functions."""
    findings: list[Finding] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return 0, [Finding("concurrency", "CONC-PARSE", where,
                           f"does not parse: {exc}")]
    parents = _parents(tree)
    checked = 0
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        if not params & {"workspace", "ws", "scratch"}:
            continue
        checked += 1
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Attribute):
                f = node.func
                if isinstance(f.value, ast.Name) and f.value.id == "np" \
                        and f.attr in ("empty", "zeros"):
                    if not _alloc_guarded(node, parents):
                        findings.append(Finding(
                            "concurrency", "CONC-ALLOC",
                            f"{where}:{node.lineno}",
                            f"unconditional np.{f.attr} in arena-served"
                            f" {fn.name}(); allocate only when the workspace"
                            " (or out) is None"))
    return checked, findings


def check_tree(root: Path | None = None,
               registry: tuple[SharedState, ...] = REGISTRY
               ) -> tuple[int, list[Finding]]:
    """Run the shared-state and allocation lints over the source tree."""
    root = root or _src_root()
    findings: list[Finding] = []
    checked = 0
    by_module: dict[str, list[SharedState]] = {}
    for state in registry:
        by_module.setdefault(state.module, []).append(state)
    for module, states in sorted(by_module.items()):
        path = root / module
        if not path.exists():
            findings.append(Finding(
                "concurrency", "CONC-REGISTRY", module,
                "registered module does not exist; update the registry"))
            continue
        n, f = check_module_source(path.read_text(), states,
                                   f"src/repro/{module}")
        checked += n
        findings.extend(f)
    for module in HOT_ALLOC_FILES:
        path = root / module
        n, f = check_alloc_source(path.read_text(), f"src/repro/{module}")
        checked += n
        findings.extend(f)
    return checked, findings
