"""The guarded execution fallback chain behind ``repro.matmul(guard=)``.

A serving layer may never surface a tuner, codegen, arena, or worker-pool
bug as a failed matmul, and an APA plan (Bini / Schonhage entries, whose
error growth Section 6 of the paper characterizes) may never silently
return garbage.  This module is the guard-specific half of a guarded
call and nothing else: the serving tail (``tuner.dispatch._serve``, for
a ``matmul`` call and a ``matmul_batched`` batch alike) resolves the
plan, takes its arena and reports exactly as it does unguarded, and
hands :func:`run_guarded` the resolved plan and a way to run it.  The
ladder always lands on a correct product:

1. **resolved plan** -- whatever the tail resolved (cache / nearest /
   model / tuned), run in the thread's arena, optionally under
   a watchdog deadline (``GuardConfig.timeout_s``);
2. **cost-model plan** -- on a *plan-implicating* failure, the best
   not-quarantined candidate from :func:`repro.tuner.space.enumerate_plans`
   that differs from the failed plan, in a throwaway arena (for a batch,
   over every element);
3. **classical** -- a direct ``np.matmul`` per element with no plan, no
   pool, no arena, and no injection points: the stage that cannot fail.

Failures that implicate the *infrastructure* rather than the plan (a
watchdog timeout, a broken pool, a task deadline, ``MemoryError``) skip
stage 2 -- retrying a different fast plan on a broken substrate wastes
the deadline budget -- and drop straight to classical, after optionally
tearing down and rebuilding the shared worker pool.

Stages 1 and 2 run one body, :func:`_guarded`:
every product that leaves an attempt passes the **numerical guardrail**
(:func:`check_product`): a sampled NaN/Inf scan for all plans, plus a
sampled residual check against
:func:`repro.core.stability.error_bound` for APA plans; a violation is
treated exactly like a raised exception.  Each plan failure is recorded
in the cache's quarantine ledger (:meth:`PlanCache.record_failure`) so
repeat offenders stop being resolved at all, the arena a failed plan ran
in is evicted, and every fallback / violation / rebuild is counted
through :mod:`repro.obs.telemetry` (``guard.*`` counters) for
``repro stats`` / ``repro multiply --explain``.

The guard is opt-in and free when off: ``guard=None`` (the default)
defers to the ``REPRO_GUARD`` environment variable, and with no guard
resolved the tail never enters this module.  With the default
``timeout_s=None`` the guarded warm path adds only the try/except
bracket and the sampled check -- the ``bench_guard.py`` CI gate holds it
within 3% of unguarded dispatch.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout

import numpy as np

from repro.algorithms.catalog import get_algorithm
from repro.core.stability import error_bound
from repro.guard import faults
from repro.obs import telemetry
from repro.parallel.pool import PoolBrokenError, TaskTimeoutError
from repro.tuner.space import Plan, enumerate_plans

_log = logging.getLogger("repro.guard")


class WatchdogTimeout(TimeoutError):
    """A guarded execution attempt overran ``GuardConfig.timeout_s``."""


class NumericViolation(ArithmeticError):
    """A guarded product failed the post-execution numerical check."""


#: failures that implicate the execution substrate, not the plan: the
#: chain skips the cost-model stage (same substrate, same outcome) and
#: degrades straight to classical
INFRASTRUCTURE_FAILURES = (
    WatchdogTimeout,
    PoolBrokenError,
    TaskTimeoutError,
    MemoryError,
)


@dataclasses.dataclass(frozen=True)
class GuardConfig:
    """How much protection a guarded call buys.

    ``timeout_s``
        watchdog deadline per execution attempt.  ``None`` (default)
        disables the watchdog -- attempts run inline on the calling
        thread with no thread hop, which is what keeps guarded warm-path
        overhead inside the bench gate.  Hung-worker recovery needs a
        finite deadline.
    ``numeric_check``
        run :func:`check_product` after every attempt (NaN/Inf always,
        APA residual bound when the plan's algorithm is APA).
    ``sample_rows``
        rows sampled by the numeric check (cost is ``sample_rows`` dot
        rows, not a second multiplication).
    ``rebuild_pools``
        tear down and rebuild the shared worker pool after an
        infrastructure failure of a parallel plan.
    """

    timeout_s: float | None = None
    numeric_check: bool = True
    sample_rows: int = 4
    rebuild_pools: bool = True


GUARD_DEFAULT = GuardConfig()

_default_guard: GuardConfig | None | str = "unset"
_default_guard_lock = threading.Lock()


def default_guard() -> GuardConfig | None:
    """The process-wide default from ``REPRO_GUARD`` (cached).

    ``REPRO_GUARD=1/on/true`` enables :data:`GUARD_DEFAULT`, a float
    enables a watchdog with that deadline, unset/``0/off/false`` leaves
    dispatch unguarded.
    """
    global _default_guard
    cfg = _default_guard
    if isinstance(cfg, str):  # "unset" sentinel: parse once, then the
        with _default_guard_lock:  # warm path is a plain attribute read
            if isinstance(_default_guard, str):
                raw = os.environ.get("REPRO_GUARD", "").strip()
                _default_guard = _parse_guard(raw) if raw else None
            cfg = _default_guard
    return cfg


def reset_default_guard() -> None:
    """Forget the cached ``REPRO_GUARD`` parse (tests)."""
    global _default_guard
    with _default_guard_lock:
        _default_guard = "unset"


def _parse_guard(raw: str) -> GuardConfig | None:
    low = raw.lower()
    if low in ("0", "off", "false", "no", "none", ""):
        return None
    if low in ("1", "on", "true", "yes"):
        return GUARD_DEFAULT
    try:
        return GuardConfig(timeout_s=float(raw))
    except ValueError:
        raise ValueError(
            f"REPRO_GUARD/guard= must be on/off, a boolean, a timeout in "
            f"seconds, or a GuardConfig; got {raw!r}"
        ) from None


def resolve_guard(guard) -> GuardConfig | None:
    """Normalize every accepted ``guard=`` spelling to a config (or None).

    ``None`` defers to :func:`default_guard` (the ``REPRO_GUARD`` env);
    ``True``/``"on"`` means :data:`GUARD_DEFAULT`; ``False``/``"off"``
    forces unguarded even when the env enables it; a number is a
    watchdog deadline; a :class:`GuardConfig` passes through.
    """
    if guard is None:
        return default_guard()
    if isinstance(guard, GuardConfig):
        return guard
    if isinstance(guard, bool):
        return GUARD_DEFAULT if guard else None
    if isinstance(guard, (int, float)):
        return GuardConfig(timeout_s=float(guard))
    if isinstance(guard, str):
        return _parse_guard(guard)
    raise ValueError(f"unsupported guard= value: {guard!r}")


# ---------------------------------------------------------------------------
# watchdog: a deadline around one execution attempt
# ---------------------------------------------------------------------------
_watchdog_lock = threading.Lock()
_watchdog: ThreadPoolExecutor | None = None


def _watchdog_pool() -> ThreadPoolExecutor:
    global _watchdog
    with _watchdog_lock:
        if _watchdog is None:
            _watchdog = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-watchdog")
        return _watchdog


def _watchdog_run(fn, timeout_s: float):
    """Run ``fn()`` on the watchdog thread with a deadline.

    On timeout the executor is discarded (its thread may be wedged inside
    the overrunning attempt; the next guarded call gets a fresh one) and
    :class:`WatchdogTimeout` is raised.  The zombie attempt may still
    finish later -- callers must give it a private destination buffer so
    a late write can never corrupt a result already returned.
    """
    global _watchdog
    pool = _watchdog_pool()
    future = pool.submit(fn)
    try:
        return future.result(timeout=timeout_s)
    except FuturesTimeout:
        future.cancel()
        with _watchdog_lock:
            if _watchdog is pool:
                _watchdog = None
        pool.shutdown(wait=False, cancel_futures=True)
        telemetry.incr("guard.watchdog_timeouts")
        raise WatchdogTimeout(
            f"guarded execution overran its {timeout_s:g}s deadline"
        ) from None


def shutdown_watchdog() -> None:
    """Tear down the watchdog executor (tests / interpreter shutdown)."""
    global _watchdog
    with _watchdog_lock:
        pool, _watchdog = _watchdog, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# numerical guardrail
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=64)
def _sample(shape: tuple[int, int], count: int, dtype) -> tuple:
    """The rows :func:`check_product` samples from a ``shape`` product --
    ``count`` of them spread evenly, the first and the last included
    (fewer when there are fewer rows) -- and zeros to scan them with."""
    p, n = shape
    count = max(1, min(count, p))
    rows = np.unique([i * (p - 1) // max(count - 1, 1)
                      for i in range(count)])
    return rows, np.zeros(rows.size * n, dtype)


def check_product(plan: Plan, A: np.ndarray, B: np.ndarray,
                  C: np.ndarray, cfg: GuardConfig) -> str | None:
    """Sampled post-execution validation; a reason string or ``None``.

    Every plan gets a finite-ness scan over ``sample_rows`` rows of the
    product (row 0 always included).  APA plans additionally get those
    rows recomputed classically and compared against
    :func:`repro.core.stability.error_bound`, which charges the entry's
    residual at every level: a healthy product reads a third of it at
    most, a noisy or scaled one exceeds it.
    """
    if C.size == 0:
        return None
    rows, zeros = _sample(C.shape, cfg.sample_rows, C.dtype)
    sample = C.take(rows, axis=0)
    # one reduction scans the sample: 0 * x is 0 for every finite x and
    # NaN for NaN and +-Inf, so the sum is non-zero (NaN) exactly when
    # the sample holds one
    if C.dtype.kind in "fc" and np.vdot(zeros, sample):
        return "non-finite values in product sample"
    if plan.is_dgemm or plan.algorithm is None:
        return None
    alg = get_algorithm(plan.algorithm)
    if not alg.apa:
        return None
    ref = A[rows] @ B
    scale = float(np.linalg.norm(ref))
    err = float(np.linalg.norm(sample.astype(ref.dtype) - ref))
    rel = err / scale if scale > 0 else err
    tol = error_bound(alg, plan.steps, A.shape[1], str(C.dtype))
    if not rel <= tol:  # NaN-safe: NaN comparisons are False
        return (f"APA residual {rel:.3g} exceeds stability bound "
                f"{tol:.3g} for {plan.describe()}")
    return None


# ---------------------------------------------------------------------------
# one guarded attempt
# ---------------------------------------------------------------------------
def _poison(C: np.ndarray) -> None:
    """The ``apa.nan`` injection point: corrupt a finished product the
    way a silently-degraded APA combine would."""
    if np.issubdtype(C.dtype, np.inexact) and C.size:
        C.reshape(-1)[0] = np.nan
    else:
        raise faults.InjectedFault("injected: apa.nan on non-float product")


def _elements(result):
    """The 2-D products of a result: a per-call product is a batch of one."""
    if isinstance(result, np.ndarray) and result.ndim == 2:
        return (result,)
    return result


def _guarded(cfg: GuardConfig, stage: str, plan: Plan, run, operands, out,
             fresh, cache, key: tuple):
    """The one guarded attempt: ``(result, None)``, or ``(None, exc)``
    once the failure has been dealt with.

    ``run(plan, dest)`` executes under the config's watchdog, if any.
    With a deadline it targets a private ``fresh()`` destination and the
    result is copied to ``out`` only on in-time success, so a timed-out
    zombie attempt can never scribble on the caller's array.  Whatever
    comes back passes the numeric guardrail (first and last element of a
    batch); a violation is a failure like any raised exception -- noted,
    charged to the plan's quarantine ledger, and followed by substrate
    repair.
    """
    try:
        if cfg.timeout_s is None:
            result = run(plan, out)
        else:
            result = fresh()
            _watchdog_run(lambda: run(plan, result), cfg.timeout_s)
            if out is not None:
                for c, src in zip(_elements(out), _elements(result)):
                    np.copyto(c, src, casting="same_kind")
                result = out
        elements = _elements(result)
        if faults.active and faults.should_fire("apa.nan"):
            _poison(elements[0])
        if cfg.numeric_check:
            for i in {0, len(elements) - 1}:
                reason = check_product(plan, operands[0][i], operands[1][i],
                                       elements[i], cfg)
                if reason is not None:
                    telemetry.incr("guard.numeric_violations")
                    raise NumericViolation(reason)
    except Exception as exc:
        telemetry.incr("guard.failures", stage=stage,
                       reason=type(exc).__name__)
        _log.warning("guarded %s-stage execution of [%s] failed: %s",
                     stage, plan.describe(), exc)
        cache.record_failure(*key, plan, exc)
        _recover_infrastructure(cfg, plan, exc)
        return None, exc
    return result, None


def _recover_infrastructure(cfg: GuardConfig, plan: Plan,
                            exc: BaseException) -> None:
    """Post-failure substrate repair: rebuild the shared pool a parallel
    plan was using when the failure implicates it."""
    from repro.tuner import dispatch

    if not cfg.rebuild_pools:
        return
    if plan.is_dgemm or plan.scheme == "sequential":
        return
    if isinstance(exc, (PoolBrokenError, TaskTimeoutError, WatchdogTimeout)):
        dispatch.rebuild_shared_pool(plan.threads)


def _fallback_plan(failed: Plan, p: int, q: int, r: int, dtype: str,
                   threads: int, cache) -> Plan | None:
    """The cost-model stage's candidate: best-ranked plan that is neither
    the plan that just failed nor quarantined for this shape."""
    for cand in enumerate_plans(p, q, r, threads=threads, dtype=dtype):
        if cand != failed and not cache.plan_quarantined(
                p, q, r, dtype, threads, cand):
            return cand
    return None


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------
def run_guarded(cfg: GuardConfig, plan: Plan, run, operands, out, fresh,
                cache, key: tuple):
    """Walk the ladder for one resolved request; ``(result, served)``.

    The serving tail hands over what it resolved -- ``plan`` and
    ``run(plan, dest)``, which executes a plan for this request into
    ``dest`` -- plus what degrading needs: ``operands`` (the ``A`` and
    ``B`` of every element, one per call), the caller's ``out`` (or
    ``None``), ``fresh()`` for a new destination of the same form, and the
    quarantine ledger (``cache`` under ``key = (p, q, r, dtype,
    threads)``).  ``served`` is the plan that
    produced the result: ``plan`` itself, the cost-model fallback, or
    plain dgemm for classical.
    """
    result, exc = _guarded(cfg, "plan", plan, run, operands, out, fresh,
                           cache, key)
    if exc is None:
        cache.record_success(*key, plan)
        return result, plan
    from repro.tuner import dispatch

    # a zombie worker might still touch the failed attempt's views
    dispatch.evict_workspace(plan, *key[:3], operands[0][0].dtype,
                             operands[1][0].dtype)

    # stage 2: cost-model fallback (skipped for infrastructure failures)
    if not isinstance(exc, INFRASTRUCTURE_FAILURES):
        fallback = _fallback_plan(plan, *key, cache)
        if fallback is not None:
            telemetry.incr("guard.fallbacks", stage="model")
            result, exc = _guarded(cfg, "model", fallback, run, operands,
                                   out, fresh, cache, key)
            if exc is None:
                return result, fallback

    # stage 3: classical -- plain ``np.matmul`` per element: no plan, no
    # pool, no arena, no injection points.  The floor that cannot fail.
    telemetry.incr("guard.fallbacks", stage="classical")
    if out is None:
        out = fresh()
    for a, b, c in zip(*operands, _elements(out)):
        np.matmul(a, b, out=c)
    return out, Plan(threads=key[4])
