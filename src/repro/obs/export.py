"""Export formats for telemetry snapshots.

Three consumers, three shapes:

- :func:`prometheus_text` renders a snapshot in the Prometheus text
  exposition format (counters as ``*_total``, spans as
  ``*_seconds_count`` / ``*_seconds_sum`` pairs), so a scrape endpoint
  or the ``repro stats --format prom`` CLI can feed a real monitoring
  stack without any client library;
- :func:`save_snapshot` / :func:`load_snapshot` persist a snapshot as
  JSON, which is how telemetry crosses the process boundary between
  ``repro multiply --auto`` (which records) and a later ``repro stats``
  (which reads);
- :func:`summarize` digests a snapshot into the handful of numbers a
  human asks first (calls, plan-source mix, cache hit ratio, arena
  health, per-scheme span totals) -- the future serving layer's health
  endpoint reads this;
- :func:`render_record` and :func:`render_summary` are the one human
  rendering of a dispatch record and of a summary: ``repro multiply``
  (with or without ``--explain``) and ``repro stats`` print nothing else
  about a call.

Like :mod:`repro.obs.telemetry`, stdlib-only: no imports from the rest
of ``repro``.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

from . import telemetry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: environment override for the cross-process snapshot file
SNAPSHOT_ENV = "REPRO_OBS_SNAPSHOT"

#: a span row's own fields; any other key is a tally (``telemetry.tally``)
_SPAN_FIELDS = frozenset(("name", "labels", "count", "total_s", "min_s",
                          "max_s"))


# ----------------------------------------------------------- prometheus
def _metric_name(name: str, suffix: str = "") -> str:
    # dots (our namespacing) become underscores; anything else exotic too
    return "repro_" + _NAME_RE.sub("_", name) + suffix


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _label_text(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_NAME_RE.sub("_", str(k))}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(snap: dict | None = None) -> str:
    """Render a snapshot (default: the live registry) as Prometheus text.

    Counters become ``repro_<name>_total``, gauges ``repro_<name>``, and
    each span a ``_seconds_count`` / ``_seconds_sum`` pair plus a
    ``_seconds_max`` gauge.  Output is deterministically ordered and
    label values are escaped per the exposition format.
    """
    if snap is None:
        snap = telemetry.snapshot()
    lines: list[str] = []
    typed: set[str] = set()

    def emit(name: str, mtype: str, labels: dict, value) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {mtype}")
        lines.append(f"{name}{_label_text(labels)} {_fmt(value)}")

    for row in snap.get("counters", []):
        emit(_metric_name(row["name"], "_total"), "counter",
             row["labels"], row["value"])
    for row in snap.get("gauges", []):
        emit(_metric_name(row["name"]), "gauge", row["labels"], row["value"])
    for row in snap.get("spans", []):
        base = _metric_name(row["name"], "_seconds")
        emit(base + "_count", "counter", row["labels"], row["count"])
        emit(base + "_sum", "counter", row["labels"], row["total_s"])
        emit(base + "_max", "gauge", row["labels"], row["max_s"])
        for name in sorted(row.keys() - _SPAN_FIELDS):
            emit(_metric_name(f"{row['name']}.{name}", "_total"), "counter",
                 row["labels"], row[name])
    return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------- snapshot files
def default_snapshot_path() -> Path:
    """Where the cross-process snapshot lives: ``$REPRO_OBS_SNAPSHOT`` if
    set, else ``$XDG_CACHE_HOME``/``~/.cache`` ``/repro/obs_snapshot.json``
    (alongside the plan cache's conventions)."""
    env = os.environ.get(SNAPSHOT_ENV)
    if env:
        return Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro" / "obs_snapshot.json"


def save_snapshot(path: Path | str | None = None,
                  snap: dict | None = None) -> Path | None:
    """Write a snapshot (default: the live registry) as JSON.

    Atomic (temp file + rename) so a concurrent reader never sees a torn
    file.  Returns the path written, or ``None`` when the filesystem
    refuses -- telemetry must never take down the workload it observes.
    """
    if snap is None:
        snap = telemetry.snapshot()
    target = Path(path) if path is not None else default_snapshot_path()
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(target.parent),
                                   prefix=target.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(snap, fh, indent=2, sort_keys=True)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return None
    return target


def load_snapshot(path: Path | str | None = None) -> dict | None:
    """Read a snapshot written by :func:`save_snapshot`; ``None`` when the
    file is missing, unreadable, or from an incompatible schema."""
    target = Path(path) if path is not None else default_snapshot_path()
    try:
        with open(target) as fh:
            snap = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(snap, dict):
        return None
    if snap.get("schema") != telemetry.SNAPSHOT_SCHEMA:
        return None
    return snap


# -------------------------------------------------------------- summary
def summarize(snap: dict | None = None) -> dict:
    """Digest a snapshot into the first-questions numbers.

    Returns ``{"calls", "sources", "cache_hit_ratio", "workspace",
    "guard", "span_totals", "gauges", "records"}``.  The cache hit
    ratio counts exact + nearest hits over non-trivial dispatches
    (trivial calls never consult the cache), ``None`` when nothing
    non-trivial ran.
    """
    if snap is None:
        snap = telemetry.snapshot()

    counters: dict[str, dict] = {}
    for row in snap.get("counters", []):
        counters.setdefault(row["name"], {})[
            tuple(sorted(row["labels"].items()))] = row["value"]

    def total(name: str) -> int:
        return sum(counters.get(name, {}).values())

    sources = {
        dict(labels).get("source", "?"): value
        for labels, value in counters.get("dispatch.source", {}).items()
    }
    calls = total("dispatch.calls")
    non_trivial = calls - sources.get("trivial", 0)
    hits = sources.get("cache", 0) + sources.get("nearest", 0)
    hit_ratio = (hits / non_trivial) if non_trivial > 0 else None

    gauges = {
        (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
        for row in snap.get("gauges", [])
    }

    workspace = {
        "arena_bytes": gauges.get(("workspace.arena_bytes", ()), None),
        "high_water": gauges.get(("workspace.high_water", ()), None),
        "max_mark_depth": gauges.get(("workspace.max_mark_depth", ()), None),
        "overflows": total("workspace.overflows"),
        # arena (re)allocations: zero between two warm calls
        "grows": total("workspace.grows"),
    }

    # resilience counters (repro.guard): zero-filled so callers can probe
    # without existence checks
    guard = {
        "fallbacks": {
            dict(labels).get("stage", "?"): value
            for labels, value in counters.get("guard.fallbacks", {}).items()
        },
        "failures": total("guard.failures"),
        "plan_failures": total("guard.plan_failures"),
        "quarantines": total("guard.quarantines"),
        "quarantine_skips": total("guard.quarantine_skips"),
        "rehabilitations": total("guard.rehabilitations"),
        "numeric_violations": total("guard.numeric_violations"),
        "watchdog_timeouts": total("guard.watchdog_timeouts"),
        "pool_rebuilds": total("guard.pool_rebuilds"),
        "cache_load_errors": total("cache.load_errors"),
        "cache_save_errors": total("cache.save_errors"),
        "task_retries": total("pool.task_retries"),
        "faults_fired": {
            dict(labels).get("point", "?"): value
            for labels, value in counters.get("faults.fired", {}).items()
        },
    }

    span_totals: list[dict] = []
    for row in snap.get("spans", []):
        span_totals.append({
            "name": row["name"],
            "labels": row["labels"],
            "count": row["count"],
            "total_s": row["total_s"],
            # the tallies work inside the span reported (vendor=...)
            **{k: row[k] for k in row.keys() - _SPAN_FIELDS},
        })
    span_totals.sort(key=lambda r: -r["total_s"])

    return {
        "calls": calls,
        "sources": sources,
        "cache_hit_ratio": hit_ratio,
        "workspace": workspace,
        "guard": guard,
        "span_totals": span_totals,
        "gauges": [
            {"name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in sorted(gauges.items())
        ],
        "records": snap.get("dispatch_records", []),
    }


# ------------------------------------------------------------ rendering
def render_record(record: dict) -> str:
    """One dispatch record as two lines: what was asked and what served
    it (plan and source), then what it cost and the arena it ran in."""
    shape = "x".join(str(d) for d in record["shape"])
    batch = f" x batch {record['batch']}" if "batch" in record else ""
    vendor = (f", {record['vendor']} in vendor batched calls"
              if "vendor" in record else "")
    if "arena_bytes" in record:
        arena = (f"arena {record['arena_bytes']:,} bytes (high water "
                 f"{record['arena_high_water']:,}, overflows "
                 f"{record['arena_overflows']})")
    else:
        arena = "no arena"
    return (f"{shape} {record['dtype']}{batch}, {record['threads']} "
            f"thread(s) -> {record['plan']} [source: {record['source']}]\n"
            f"  {record['seconds']:.4f}s {record['gflops']:.2f} eff.GFLOPS"
            f"{'/elem' if batch else ''}, scheme {record['scheme']}, {arena}"
            f"{vendor}")


def _counts(counts: dict) -> str:
    return "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def render_summary(summary: dict) -> str:
    """A :func:`summarize` digest as text: dispatch sources, arena health,
    the guard block (only when one of its counts is non-zero), the
    busiest spans and the last dispatch record."""
    lines = [f"dispatch: {summary['calls']} call(s)"]
    if summary["sources"]:
        ratio = summary["cache_hit_ratio"]
        hit = f"{ratio:.0%}" if ratio is not None else "n/a"
        lines.append(f"  plan sources: {_counts(summary['sources'])}  "
                     f"(cache hit ratio: {hit})")
    ws = summary["workspace"]
    arena = (f"arena {int(ws['arena_bytes']):,} bytes, high water "
             f"{int(ws['high_water'] or 0):,}, "
             if ws["arena_bytes"] is not None else "")
    lines.append(f"workspace: {arena}overflows {ws['overflows']}, "
                 f"grows {ws['grows']}")
    guard = summary["guard"]
    if any(any(v.values()) if isinstance(v, dict) else v
           for v in guard.values()):
        lines += [
            f"guard: fallbacks {_counts(guard['fallbacks']) or 'none'}",
            f"  plan failures {guard['plan_failures']}, quarantines "
            f"{guard['quarantines']}, skips {guard['quarantine_skips']}, "
            f"rehabilitations {guard['rehabilitations']}",
            f"  numeric violations {guard['numeric_violations']}, watchdog "
            f"timeouts {guard['watchdog_timeouts']}, pool rebuilds "
            f"{guard['pool_rebuilds']}, task retries {guard['task_retries']}",
        ]
        if guard["cache_load_errors"] or guard["cache_save_errors"]:
            lines.append(f"  cache load errors {guard['cache_load_errors']}, "
                         f"save errors {guard['cache_save_errors']}")
        if guard["faults_fired"]:
            lines.append("  injected faults fired: "
                         + _counts(guard["faults_fired"]))
    if summary["span_totals"]:
        lines.append("span totals (by total time):")
        for row in summary["span_totals"][:12]:
            labels = "".join(f" {k}={v}" for k, v
                             in sorted(row["labels"].items()))
            tallies = "".join(f" {k}={row[k]}" for k
                              in sorted(row.keys() - _SPAN_FIELDS))
            lines.append(f"  {row['name']:<28}{labels} x{row['count']:<4} "
                         f"total {row['total_s']:.4f}s{tallies}")
    if summary["records"]:
        lines.append("last dispatch: " + render_record(summary["records"][-1]))
    return "\n".join(lines)
