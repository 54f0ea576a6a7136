"""Catalog validator: every shipped scheme is well-formed and accurate.

The catalog is the ground truth the whole stack (and the descriptor
verifier) measures against, so it gets its own static pass: shape/rank
consistency of ``[U,V,W]``, float64 dtype, finiteness, and residual
verification -- exact entries must satisfy ``residual <= EXACT_TOL``,
APA entries must reproduce the residual recorded in their data file
(drift means the file was edited without re-deriving the metadata).

Codes: ``CAT-SHAPE``, ``CAT-DTYPE``, ``CAT-NONFINITE``, ``CAT-RESIDUAL``,
``CAT-FLAG`` (apa/exact metadata contradicts the measured residual),
``CAT-LOAD`` (entry fails to load at all), ``CAT-DATA`` (data file is
not valid JSON / missing keys).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.analyze.base import Finding

#: An APA entry's recomputed residual may differ from the recorded one
#: only by float noise; anything larger means the scheme and its
#: metadata have drifted apart.
RESIDUAL_DRIFT_RTOL = 1e-6


def check_algorithm(alg, where: str | None = None,
                    recorded_residual: float | None = None) -> list[Finding]:
    """Validate one :class:`FastAlgorithm` (importable for mutation tests)."""
    from repro.core.algorithm import EXACT_TOL

    where = where or alg.name
    findings: list[Finding] = []
    m, k, n, R = alg.m, alg.k, alg.n, alg.rank
    expect = {"U": (m * k, R), "V": (k * n, R), "W": (m * n, R)}
    for name, shape in expect.items():
        M = getattr(alg, name)
        if M.shape != shape:
            findings.append(Finding(
                "catalog", "CAT-SHAPE", where,
                f"{name} has shape {M.shape}, <{m},{k},{n}> rank {R}"
                f" requires {shape}"))
            return findings
        if M.dtype != np.float64:
            findings.append(Finding(
                "catalog", "CAT-DTYPE", where,
                f"{name} stored as {M.dtype}, catalog contract is float64"))
        if not np.isfinite(M).all():
            findings.append(Finding(
                "catalog", "CAT-NONFINITE", where,
                f"{name} contains non-finite coefficients"))
            return findings
    res = float(alg.residual())
    # data files record rel_residual = ||T - [[U,V,W]]||_F / ||T||_F, and
    # the matmul tensor has exactly m*k*n unit entries
    rel = res / float(np.sqrt(m * k * n))
    if alg.apa:
        if res <= EXACT_TOL:
            findings.append(Finding(
                "catalog", "CAT-FLAG", where,
                f"entry is flagged APA but its residual {res:.3g} is exact"
                " to tolerance; drop the flag"))
        if recorded_residual is not None:
            drift = abs(rel - recorded_residual)
            if drift > RESIDUAL_DRIFT_RTOL * max(1.0, abs(recorded_residual)):
                findings.append(Finding(
                    "catalog", "CAT-RESIDUAL", where,
                    f"recomputed rel residual {rel:.9g} differs from the"
                    f" recorded rel_residual {recorded_residual:.9g}; the"
                    " scheme and its metadata have drifted apart"))
        if rel >= 1.0:
            findings.append(Finding(
                "catalog", "CAT-RESIDUAL", where,
                f"APA relative residual {rel:.3g} >= 1: scheme carries no"
                " signal"))
    else:
        if res > EXACT_TOL:
            findings.append(Finding(
                "catalog", "CAT-RESIDUAL", where,
                f"exact entry has residual {res:.3g} > EXACT_TOL"
                f" ({EXACT_TOL:g}): a coefficient is corrupt"))
    return findings


def check_data_file(path: Path) -> list[Finding]:
    """Validate one ``algorithms/data/*.json`` payload's structure."""
    where = f"data/{path.name}"
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [Finding("catalog", "CAT-DATA", where,
                        f"unreadable or invalid JSON: {exc}")]
    missing = {"name", "base_case", "rank", "U", "V", "W"} - set(raw)
    if missing:
        return [Finding("catalog", "CAT-DATA", where,
                        f"missing required keys {sorted(missing)}")]
    if raw.get("apa") and "rel_residual" not in raw:
        return [Finding("catalog", "CAT-DATA", where,
                        "APA entry records no rel_residual")]
    return []


def check_catalog(include_apa: bool = True) -> tuple[int, list[Finding]]:
    """Validate every data file and every registered catalog entry."""
    from repro.algorithms.catalog import DATA_DIR, get_algorithm, list_algorithms

    findings: list[Finding] = []
    checked = 0
    recorded: dict[str, float] = {}
    for path in sorted(Path(DATA_DIR).glob("*.json")):
        checked += 1
        findings.extend(check_data_file(path))
        try:
            raw = json.loads(path.read_text())
            if "rel_residual" in raw:
                # key by file stem: the registry name is the file name, the
                # payload "name" field keeps the searcher's generic label
                recorded[path.stem] = float(raw["rel_residual"])
        except (OSError, json.JSONDecodeError, TypeError, ValueError):
            pass
    for name in list_algorithms(include_apa=include_apa):
        checked += 1
        try:
            alg = get_algorithm(name)
        except Exception as exc:  # the load path is the thing under test
            findings.append(Finding(
                "catalog", "CAT-LOAD", name,
                f"catalog entry fails to load: {exc}"))
            continue
        findings.extend(check_algorithm(
            alg, where=name, recorded_residual=recorded.get(name)))
    return checked, findings
