"""Shared finding model for the static-analysis passes (`repro analyze`).

Every analyzer reports :class:`Finding` records; an empty list means the
property it checks is *proved* for the artifacts it swept (not merely
"no test failed").  Codes are stable strings the mutation-testing suite
keys on, so renaming one is an API change.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One defect located by a static analyzer."""

    analyzer: str   # "cemit" | "arena" | "concurrency" | "catalog"
    code: str       # stable machine code, e.g. "CEMIT-TENSOR"
    where: str      # artifact/function or file:line the finding anchors to
    message: str    # human explanation
    detail: dict = field(default_factory=dict, compare=False, hash=False)

    def __str__(self) -> str:
        return f"[{self.analyzer}:{self.code}] {self.where}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "analyzer": self.analyzer,
            "code": self.code,
            "where": self.where,
            "message": self.message,
            "detail": dict(self.detail),
        }


def has_code(findings: list[Finding], code: str) -> bool:
    """Whether any finding carries ``code`` (mutation tests use this)."""
    return any(f.code == code for f in findings)
