"""Deterministic fault injection: the chaos half of ``repro.guard``.

A resilience layer is only as trustworthy as the failures it has been
*proven* against, so every degradation path in the guard chain is
exercised through named injection points compiled into the production
code itself -- one ``faults.active`` branch when disarmed, the same
one-branch contract :mod:`repro.obs.telemetry` holds for observability.

Injection points (the names the chaos suite and CI use):

``plan.raise``
    :func:`repro.tuner.dispatch.execute_plan` raises :class:`InjectedFault`
    before doing any work -- a tuner/codegen/executor bug surfacing as an
    exception on the serving path.
``apa.nan``
    the product of a guarded execution attempt is poisoned with NaN after
    it completes -- what a mis-truncated APA combine produces silently.
``worker.hang``
    the next task submitted to a :class:`repro.parallel.pool.WorkerPool`
    blocks in the worker (bounded by ``hang_seconds``) before running --
    a stuck thread the watchdog must detect.
``worker.die``
    the pool marks itself broken; ``submit`` raises
    :class:`repro.parallel.pool.PoolBrokenError` -- a dead executor.
``workspace.overflow``
    a :meth:`repro.core.workspace.Workspace.take` is forced off the arena
    *and* its heap fallback fails with ``MemoryError`` -- arena overflow
    under real memory pressure, not the graceful everyday kind.
``cache.corrupt``
    :meth:`repro.tuner.cache.PlanCache.load` treats the cache file as
    unparsable -- a crash mid-write / bit-rot scenario, exercising the
    warn-once + ``.corrupt``-sidecar recovery path.
``cbackend.compilefail``
    :func:`repro.codegen.cbackend._compile_source` raises
    :class:`InjectedFault` instead of invoking the compiler -- a broken
    toolchain discovered at serving time; dispatch must degrade a
    ``backend="compiled"`` plan to the NumPy-source module, and a
    parallel schedule its fused chains to the NumPy adders, never fail
    the multiply.  (The ``available()`` probe is exempt so a transient
    injected fault cannot poison its process-lifetime cache.)

Activation is explicit: the :func:`inject` context manager (tests), or
the ``REPRO_FAULTS`` environment variable (CI chaos jobs), e.g.
``REPRO_FAULTS="plan.raise,worker.hang:2"`` -- ``point`` alone fires on
every pass through the site, ``point:N`` fires exactly N times.  Each
firing is counted in the ``faults.fired`` telemetry counter, so a chaos
run's injected-vs-recovered ledger is readable from ``repro stats``.

Determinism: firings are consumed in program order under one lock, there
is no randomness anywhere, and a disarmed process (no env var, no active
``inject``) never evaluates anything beyond the module-level ``active``
flag.
"""

from __future__ import annotations

import contextlib
import os
import threading

from repro.obs import telemetry

#: every named injection point (specs naming anything else are rejected)
POINTS = (
    "plan.raise",
    "apa.nan",
    "worker.hang",
    "worker.die",
    "workspace.overflow",
    "cache.corrupt",
    "cbackend.compilefail",
)

#: default upper bound on an injected hang -- a chaos run whose watchdog
#: is broken must still terminate
DEFAULT_HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """The exception raised by raising injection points."""


_lock = threading.Lock()
_specs: dict[str, int | None] = {}  # point -> remaining firings (None = inf)
_fired: dict[str, int] = {}
_hang_event = threading.Event()
_hang_seconds = DEFAULT_HANG_SECONDS

#: the one-branch disarmed check: production sites read this module
#: attribute and go no further when it is False
active = False


def _parse_spec(spec: str) -> tuple[str, int | None]:
    point, _, count = spec.partition(":")
    point = point.strip()
    if point not in POINTS:
        raise ValueError(
            f"unknown fault point {point!r}; valid points: {', '.join(POINTS)}"
        )
    if not count:
        return point, None
    n = int(count)
    if n < 1:
        raise ValueError(f"fault count must be >= 1 in {spec!r}")
    return point, n


def arm(*specs: str, hang_seconds: float = DEFAULT_HANG_SECONDS) -> None:
    """Arm fault points (``"point"`` or ``"point:count"`` strings).

    Arming merges into whatever is already armed; unknown points raise
    before anything is armed.  ``hang_seconds`` bounds ``worker.hang``.
    """
    global active, _hang_seconds
    parsed = [_parse_spec(s) for s in specs]
    with _lock:
        for point, count in parsed:
            _specs[point] = count
        _hang_seconds = float(hang_seconds)
        _hang_event.clear()
        active = bool(_specs)


def clear() -> None:
    """Disarm every point and release any injected hang."""
    global active
    with _lock:
        _specs.clear()
        active = False
    _hang_event.set()


@contextlib.contextmanager
def inject(*specs: str, hang_seconds: float = DEFAULT_HANG_SECONDS):
    """Context manager arming faults for its body, disarming on exit.

    Exit also releases workers parked in an injected hang, so a test
    never leaks a blocked pool thread past its own scope.
    """
    arm(*specs, hang_seconds=hang_seconds)
    try:
        yield
    finally:
        clear()


def install_from_env(env: str | None = None) -> bool:
    """Arm from ``REPRO_FAULTS`` (or an explicit spec string); ``True``
    when anything was armed.  Malformed specs raise -- a chaos CI job
    with a typo must fail loudly, not run faultless and pass."""
    raw = os.environ.get("REPRO_FAULTS", "") if env is None else env
    specs = [s for s in (part.strip() for part in raw.split(",")) if s]
    if not specs:
        return False
    arm(*specs)
    return True


def should_fire(point: str) -> bool:
    """Consume one firing of ``point``; ``False`` when disarmed/spent.

    The injection-site idiom is ``if faults.active and
    faults.should_fire("..."):`` so a disarmed process pays one attribute
    read and one branch.
    """
    if not active:
        return False
    with _lock:
        if point not in _specs:
            return False
        remaining = _specs[point]
        if remaining is not None:
            if remaining <= 0:
                return False
            _specs[point] = remaining - 1
        _fired[point] = _fired.get(point, 0) + 1
    telemetry.incr("faults.fired", point=point)
    return True


def hang() -> None:
    """Park the calling (worker) thread until :func:`clear` or the armed
    ``hang_seconds`` bound elapses -- the body of ``worker.hang``."""
    _hang_event.wait(_hang_seconds)


def fired(point: str | None = None) -> int | dict[str, int]:
    """Total firings of one point (or a copy of the whole ledger)."""
    with _lock:
        if point is not None:
            return _fired.get(point, 0)
        return dict(_fired)


def reset_fired() -> None:
    """Zero the firing ledger (tests)."""
    with _lock:
        _fired.clear()


# arm from the environment at import, mirroring REPRO_OBS: a chaos CI job
# exports REPRO_FAULTS and every process in it is born armed
install_from_env()
