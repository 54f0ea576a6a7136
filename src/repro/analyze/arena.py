"""Arena-discipline checker for the source tree.

The workspace protocol (``repro.core.workspace``) is a convention: every
``take`` happens inside a ``mark``/``release`` pair.  The executors
enforce it dynamically (overflow warnings, tracking allocators); this
pass enforces the balance *statically* on the AST of every hand-written
function: each ``x = <arena>.mark()`` must see ``<arena>.release(x)``.

- ``ARENA-UNRELEASED`` -- a mark is never released;
- ``ARENA-PARSE``      -- a source file does not parse.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analyze.base import Finding


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
