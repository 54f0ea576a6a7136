"""Unified telemetry: spans, counters, gauges, and dispatch introspection.

The paper's whole argument is about *where the time goes* -- per-level
S/T/M traffic, scheme-dependent load balance, cache behaviour -- and the
runtime stack (``tuner.dispatch`` -> ``core.workspace`` ->
``parallel.schedules``) makes all of those decisions silently.  This
module is the one place they become visible: a process-wide, thread-safe
registry of

- **spans** -- nestable ``with span("dispatch.lookup"):`` timers on
  ``time.perf_counter_ns``, aggregated per (name, labels) into
  count/total/min/max, plus the summed *tallies* work inside them
  reported (:func:`tally`: how many products ran in vendor batched
  calls, ``vendor``);
- **counters** -- monotonic integers (``incr("dispatch.calls")``);
- **gauges** -- last-written floats (``set_gauge("workspace.arena_bytes",
  n)``);
- **dispatch records** -- a bounded ring buffer of the last N per-call
  records ``tuner.dispatch`` emits (plan source, chosen plan, seconds,
  effective GFLOPS, arena health), the raw stream a serving layer's
  per-request telemetry will read;
- **task events** -- the ``(worker, label, start, stop)`` stream the
  parallel schedules' tracing pool produces
  (:mod:`repro.parallel.trace` feeds :func:`record_task`), aggregated
  into per-label spans and per-worker busy counters so load imbalance is
  observable without holding raw event lists.

Telemetry is **off by default** and the disabled path is deliberately
one branch: every recording entry point starts with ``if not _enabled:
return`` (``span`` returns a shared no-op context manager), so an
uninstrumented production dispatch pays a single predictable-taken
branch per call site -- the CI overhead gate
(``benchmarks/bench_obs.py``) holds the *enabled* warm-dispatch path to
<= 3% and the disabled path is far below measurement noise.  The
enabled hot path is cheap because it only queues: a span's exit and a
request's report (:func:`defer`) append one tuple to a deque, and the
tables are brought up to date -- under the lock, by whoever reads them
(or by a recorder, every ``_PENDING_MAX`` samples) -- when they are read.

Zero dependencies by design: this module imports nothing from the rest
of ``repro`` (stdlib only), so every layer -- including
``core.workspace`` at the bottom of the stack -- may import it without
cycles.

Enable with :func:`enable` (or ``REPRO_OBS=1`` in the environment), read
with :func:`snapshot` (JSON-ready) and the :mod:`repro.obs.export`
formatters, clear with :func:`reset`.
"""

from __future__ import annotations

import collections
import os
import threading
import time

#: dispatch records retained by default (override via ``enable(ring_size=)``)
DEFAULT_RING_SIZE = 256

#: the one branch the disabled hot path pays (module global, read without
#: a lock: stale reads cost at most one dropped or extra sample around an
#: enable()/disable() edge, never corruption)
_enabled = False

_lock = threading.Lock()
_local = threading.local()


# ---------------------------------------------------------------- clock
def clock_ns() -> int:
    """The shared telemetry clock: monotonic integer nanoseconds."""
    return time.perf_counter_ns()


def clock() -> float:
    """The shared clock in float seconds (same origin as :func:`clock_ns`);
    :mod:`repro.parallel.trace` timestamps its task events with this so
    every timing stream in the process is mutually comparable."""
    return time.perf_counter_ns() * 1e-9


# ------------------------------------------------------------- registry
def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: (name, *label items) -> registry key: a call site's labels are
#: normalised once, not at every sample (bounded; cleared when full)
_keys: dict[tuple, tuple[str, tuple]] = {}
_KEYS_MAX = 4096


def _key(name: str, labels: dict) -> tuple[str, tuple]:
    raw = (name, *labels.items())
    try:
        return _keys[raw]
    except KeyError:
        pass
    except TypeError:               # an unhashable label value
        return name, _label_key(labels)
    if len(_keys) >= _KEYS_MAX:
        _keys.clear()
    key = _keys[raw] = (name, _label_key(labels))
    return key


class _SpanStat:
    __slots__ = ("count", "total_ns", "min_ns", "max_ns", "tallies")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.min_ns: int | None = None
        self.max_ns = 0
        self.tallies: dict[str, int] = {}

    def row(self) -> dict:
        """count, total, min and max seconds, then each tally's sum."""
        return {
            "count": self.count,
            "total_s": self.total_ns * 1e-9,
            "min_s": (self.min_ns or 0) * 1e-9,
            "max_s": self.max_ns * 1e-9,
            **self.tallies,
        }

    def add(self, dt_ns: int, tallies: dict | None = None) -> None:
        for name, n in (tallies or {}).items():
            self.tallies[name] = self.tallies.get(name, 0) + n
        self.count += 1
        self.total_ns += dt_ns
        if self.min_ns is None or dt_ns < self.min_ns:
            self.min_ns = dt_ns
        if dt_ns > self.max_ns:
            self.max_ns = dt_ns


#: (name, labels) -> value; plain dicts guarded by the module lock
_counters: dict[tuple[str, tuple], int] = {}
_gauges: dict[tuple[str, tuple], float] = {}
_spans: dict[tuple[str, tuple], _SpanStat] = {}
_dispatch_ring: collections.deque = collections.deque(maxlen=DEFAULT_RING_SIZE)


# ---------------------------------------------------------------- spans
class _NullSpan:
    """Shared do-nothing context manager: what ``span`` hands out while
    telemetry is disabled, so the disabled call site costs one branch and
    one attribute load, never an allocation."""

    __slots__ = ()
    tallies = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_key", "_t0", "tallies")

    def __init__(self, key: tuple[str, tuple]):
        self._key = key
        self._t0 = 0
        #: what :func:`tally` added while this span was open (``None``:
        #: nothing)
        self.tallies: dict[str, int] | None = None

    def __enter__(self) -> "_Span":
        try:
            _local.stack.append(self)
        except AttributeError:
            _local.stack = [self]
        self.tallies = None
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        dt = time.perf_counter_ns() - self._t0
        try:
            _local.stack.pop()
        except (AttributeError, IndexError):  # pragma: no cover - defensive
            pass
        _queue((self._key, (dt, self.tallies)))
        return False


def span(name: str, **labels):
    """A nestable timing context manager (no-op while disabled).

    Spans aggregate per ``(name, labels)``: count, total, min and max
    nanoseconds.  Nesting is unrestricted -- each level times itself --
    and the per-thread nesting stack is visible via :func:`active_spans`.
    """
    if not _enabled:
        return NULL_SPAN
    return _Span(_key(name, labels))


def active_spans() -> tuple[str, ...]:
    """The calling thread's current span-nesting stack, outermost first."""
    return tuple(sp._key[0] for sp in getattr(_local, "stack", ()))


def tally(name: str, n: int) -> None:
    """Add ``n`` to the ``name`` tally of every span the calling thread
    has open (no-op while disabled or for ``n == 0``): work done inside a
    span says how much of it it did, without a label of its own, so the
    span keeps its key.  The span's stats sum it over its calls
    (:func:`span_stats`), and a request's record reads its dispatch span's
    (``vendor``, :mod:`repro.tuner.dispatch`)."""
    if not _enabled or not n:
        return
    for sp in getattr(_local, "stack", ()):
        if sp.tallies is None:
            sp.tallies = {}
        sp.tallies[name] = sp.tallies.get(name, 0) + n


# ---------------------------------------------------- counters / gauges
def incr(name: str, value: int = 1, **labels) -> None:
    """Add ``value`` to a monotonic counter (no-op while disabled)."""
    if not _enabled:
        return
    key = _key(name, labels)
    with _lock:
        _counters[key] = _counters.get(key, 0) + int(value)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a last-value-wins gauge (no-op while disabled)."""
    if not _enabled:
        return
    key = _key(name, labels)
    with _lock:
        _gauges[key] = float(value)


def counter_value(name: str, **labels) -> int:
    """Current value of one counter (0 when never incremented)."""
    with _lock:
        _fold_locked()
        return _counters.get((name, _label_key(labels)), 0)


def gauge_value(name: str, **labels) -> float | None:
    """Current value of one gauge (``None`` when never set)."""
    with _lock:
        _fold_locked()
        return _gauges.get((name, _label_key(labels)))


def span_stats(name: str, **labels) -> dict | None:
    """Aggregated stats of one span as a dict (``None`` when never
    entered): ``count``, ``total_s``, ``min_s``, ``max_s`` and the sum of
    each :func:`tally` made inside it."""
    with _lock:
        _fold_locked()
        stat = _spans.get((name, _label_key(labels)))
        return None if stat is None else stat.row()


# ------------------------------------------------------ dispatch records
def record_dispatch(record: dict) -> None:
    """Append one per-call dispatch record to the ring buffer (no-op while
    disabled).  The record is whatever JSON-ready dict the dispatcher
    built; the ring keeps the newest :data:`DEFAULT_RING_SIZE` (or the
    size passed to :func:`enable`)."""
    if not _enabled:
        return
    with _lock:
        _dispatch_ring.append(record)


def defer(build, *args) -> None:
    """Queue one request's report, built at the next read (no-op while
    disabled).

    ``build(*args)`` returns ``(record, counters, gauges)``: a dispatch
    record for the ring (or ``None``), and name -> value dicts of
    counters to add to and gauges to set, a name being a string or a
    ``(name, ((label, value), ...))`` registry key (labels sorted, values
    strings).  It runs at the next read of the registry, under its lock,
    so it computes from its arguments alone -- whatever might change
    before then is read into them -- and never calls back into this
    module.  The serving tail reports this way so
    that a warm call pays one queue append, not a record, a lock and a
    dictionary update per metric.
    """
    if _enabled:
        _queue((build, args))


def dispatch_records() -> list[dict]:
    """The retained dispatch records, oldest first."""
    with _lock:
        _fold_locked()
        return list(_dispatch_ring)


# ------------------------------------------------------- deferred samples
#: what hot paths recorded and no reader has folded in yet: a span's
#: ``(key, (ns, tallies))`` or a report's ``(build, args)``.  Recording
#: is one deque append (atomic, no lock); readers fold the queue under
#: the lock first, and a recorder folds it itself once it holds
#: ``_PENDING_MAX`` samples
_pending: collections.deque = collections.deque()
_PENDING_MAX = 1024


def _queue(sample: tuple) -> None:
    _pending.append(sample)
    if len(_pending) >= _PENDING_MAX:
        with _lock:
            _fold_locked()


def _metric_key(name) -> tuple[str, tuple]:
    return (name, ()) if isinstance(name, str) else name


def _fold_locked() -> None:
    """Fold the queued samples into the tables (the caller holds the
    lock)."""
    while _pending:
        head, tail = _pending.popleft()
        if not callable(head):
            stat = _spans.get(head)
            if stat is None:
                stat = _spans[head] = _SpanStat()
            stat.add(*tail)
            continue
        record, counters, gauges = head(*tail)
        if record is not None:
            _dispatch_ring.append(record)
        for name, value in counters.items():
            key = _metric_key(name)
            _counters[key] = _counters.get(key, 0) + int(value)
        for name, value in gauges.items():
            _gauges[_metric_key(name)] = float(value)


# ----------------------------------------------------------- task events
def record_task(worker: str, label: str, start_s: float, stop_s: float) -> None:
    """Fold one pool task event into the registry (no-op while disabled).

    This is the schedules' task stream -- :class:`repro.parallel.trace.
    TracedPool` forwards every event it captures -- aggregated as a span
    ``task.<label>`` plus per-worker busy-time counters, so per-scheme
    task totals and load balance are readable from a snapshot without
    retaining raw event lists.
    """
    if not _enabled:
        return
    dt_ns = max(0, int(round((stop_s - start_s) * 1e9)))
    skey = ("task." + label, ())
    ckey = ("task.events", (("worker", str(worker)),))
    bkey = ("task.busy_ns", (("worker", str(worker)),))
    with _lock:
        stat = _spans.get(skey)
        if stat is None:
            stat = _spans[skey] = _SpanStat()
        stat.add(dt_ns)
        _counters[ckey] = _counters.get(ckey, 0) + 1
        _counters[bkey] = _counters.get(bkey, 0) + dt_ns


# ----------------------------------------------------------- lifecycle
def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return _enabled


def enable(ring_size: int | None = None) -> None:
    """Turn recording on (idempotent).  ``ring_size`` bounds the dispatch
    ring buffer; passing one resizes it, keeping the newest records."""
    global _enabled, _dispatch_ring
    with _lock:
        if ring_size is not None and ring_size != _dispatch_ring.maxlen:
            _fold_locked()
            _dispatch_ring = collections.deque(
                _dispatch_ring, maxlen=max(1, int(ring_size))
            )
        _enabled = True


def disable() -> None:
    """Stop recording.  Accumulated data is kept (read it, or ``reset``)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop every counter, gauge, span aggregate and dispatch record."""
    with _lock:
        _pending.clear()
        _counters.clear()
        _gauges.clear()
        _spans.clear()
        _dispatch_ring.clear()


def ring_size() -> int:
    """Current dispatch-ring capacity."""
    return _dispatch_ring.maxlen or DEFAULT_RING_SIZE


# ------------------------------------------------------------- snapshot
#: bump when the snapshot layout changes incompatibly (mirrors the plan
#: cache's discipline: a consumer must be able to refuse foreign layouts)
SNAPSHOT_SCHEMA = 1


def _metric_rows(table: dict) -> list[dict]:
    return [
        {"name": name, "labels": dict(labels), "value": value}
        for (name, labels), value in sorted(table.items())
    ]


def snapshot(reset_after: bool = False) -> dict:
    """The whole registry as one JSON-ready dict.

    Structured (lists of ``{name, labels, value}`` rows) rather than
    flattened strings, so the Prometheus formatter and the serving layer
    can consume labels without parsing.  ``reset_after=True`` atomically
    clears the registry under the same lock, so a scrape-and-reset
    consumer never loses samples recorded between the two steps.
    """
    with _lock:
        _fold_locked()
        snap = {
            "schema": SNAPSHOT_SCHEMA,
            "enabled": _enabled,
            "counters": _metric_rows(_counters),
            "gauges": _metric_rows(_gauges),
            "spans": [
                {"name": name, "labels": dict(labels), **stat.row()}
                for (name, labels), stat in sorted(
                    _spans.items(), key=lambda kv: kv[0]
                )
            ],
            "dispatch_records": list(_dispatch_ring),
        }
        if reset_after:
            _counters.clear()
            _gauges.clear()
            _spans.clear()
            _dispatch_ring.clear()
    return snap


def is_empty(snap: dict | None = None) -> bool:
    """Whether a snapshot (default: the live registry) holds any data."""
    if snap is None:
        snap = snapshot()
    return not (snap.get("counters") or snap.get("gauges")
                or snap.get("spans") or snap.get("dispatch_records"))


# honor the environment at import: REPRO_OBS=1 (anything but ""/"0") turns
# recording on for the whole process, the zero-code-change way to observe
# an existing workload
if os.environ.get("REPRO_OBS", "").strip() not in ("", "0"):
    enable()
