"""repro.analyze: static analysis over the descriptors and the source tree.

Four passes, each importable and driven by ``repro analyze``:

- :mod:`repro.analyze.cemit` -- reads each algorithm's descriptor -- the
  chain programs, coefficients, operands and product homes the one C
  library runs it from -- back into coefficient tables and proves the
  recovered bilinear form equals the catalog ``[U,V,W]`` scheme,
  coefficient by coefficient, with no compiler in the loop and without
  executing a multiply;
- :mod:`repro.analyze.arena` -- checks the ``mark``/``release`` balance
  of every function in the source tree;
- :mod:`repro.analyze.concurrency` -- a registry of known shared state and
  the lock that must guard each, flagging mutations reached outside a
  ``with <lock>`` scope, plus a hot-path allocation lint;
- :mod:`repro.analyze.catalog` -- shape/rank/dtype/finiteness and residual
  verification for every catalog entry (exact entries to ``EXACT_TOL``,
  APA entries against their recorded residual).

An empty finding list is a proof over the swept artifacts, which is what
lets CI block on this pass.  The suite is self-validating: the mutation
tests in ``tests/test_analyze.py`` corrupt artifacts in known ways and
assert the corresponding analyzer fires.
"""

from __future__ import annotations

from repro.analyze.base import Finding, has_code

ANALYZERS = ("cemit", "arena", "concurrency", "catalog")

__all__ = ["ANALYZERS", "Finding", "has_code", "run", "run_all"]


def run(analyzer: str, **kwargs) -> tuple[int, list[Finding]]:
    """Run one analyzer by name; returns ``(artifacts_checked, findings)``.

    Emits ``analyze.runs`` / ``analyze.findings.<name>`` through
    :mod:`repro.obs` so sweeps show up in telemetry like any other
    subsystem.
    """
    from repro import obs

    if analyzer == "cemit":
        from repro.analyze.cemit import verify_catalog as verify_cemit

        with obs.span("analyze.cemit"):
            checked, findings = verify_cemit(**kwargs)
    elif analyzer == "arena":
        from repro.analyze.arena import check_tree

        with obs.span("analyze.arena"):
            checked, findings = check_tree(**kwargs)
    elif analyzer == "concurrency":
        from repro.analyze.concurrency import check_tree

        with obs.span("analyze.concurrency"):
            checked, findings = check_tree(**kwargs)
    elif analyzer == "catalog":
        from repro.analyze.catalog import check_catalog

        with obs.span("analyze.catalog"):
            checked, findings = check_catalog(**kwargs)
    else:
        raise ValueError(f"unknown analyzer {analyzer!r}; have {ANALYZERS}")
    obs.incr("analyze.runs")
    obs.incr(f"analyze.findings.{analyzer}", len(findings))
    return checked, findings


def run_all(analyzers=ANALYZERS) -> dict[str, tuple[int, list[Finding]]]:
    """Run the requested analyzers; returns ``{name: (checked, findings)}``."""
    return {name: run(name) for name in analyzers}
