"""repro.obs: unified telemetry for the tuner/arena/parallel stack.

Spans, counters, gauges, dispatch-record introspection, and export
formats (JSON snapshot, Prometheus text, the human rendering of a
record and of a summary).  Off by default; enable with
:func:`enable` or ``REPRO_OBS=1``.  See :mod:`repro.obs.telemetry` for
the design notes (one-branch disabled path, zero repro-internal
dependencies).
"""

from .export import (
    SNAPSHOT_ENV,
    default_snapshot_path,
    load_snapshot,
    prometheus_text,
    render_record,
    render_summary,
    save_snapshot,
    summarize,
)
from .telemetry import (
    DEFAULT_RING_SIZE,
    NULL_SPAN,
    SNAPSHOT_SCHEMA,
    active_spans,
    clock,
    clock_ns,
    counter_value,
    disable,
    dispatch_records,
    enable,
    enabled,
    gauge_value,
    incr,
    is_empty,
    record_dispatch,
    record_task,
    reset,
    ring_size,
    set_gauge,
    snapshot,
    span,
    span_stats,
    tally,
)

__all__ = [
    "DEFAULT_RING_SIZE",
    "NULL_SPAN",
    "SNAPSHOT_ENV",
    "SNAPSHOT_SCHEMA",
    "active_spans",
    "clock",
    "clock_ns",
    "counter_value",
    "default_snapshot_path",
    "disable",
    "dispatch_records",
    "enable",
    "enabled",
    "gauge_value",
    "incr",
    "is_empty",
    "load_snapshot",
    "prometheus_text",
    "record_dispatch",
    "record_task",
    "render_record",
    "render_summary",
    "reset",
    "ring_size",
    "save_snapshot",
    "set_gauge",
    "snapshot",
    "span",
    "span_stats",
    "summarize",
    "tally",
]
