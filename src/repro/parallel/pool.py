"""Worker pool with OpenMP-task-like semantics.

The paper parallelizes with OpenMP tasks plus ``taskwait`` barriers
(Section 4.4).  Python threads + numpy reproduce this honestly because the
heavy primitives (BLAS gemm, large-array ufuncs) release the GIL, so leaf
multiplications and matrix additions genuinely overlap.

``TaskGroup`` mirrors ``#pragma omp taskwait``: submit tasks, then ``wait``
for all of them; exceptions in workers propagate to the waiter.

Supervision (the ``repro.guard`` substrate): a pool detects a dead
executor and refuses further work with :class:`PoolBrokenError` instead
of deadlocking; ``wait``/``map_wait`` accept a deadline and raise
:class:`TaskTimeoutError` when a worker wedges past it; and tasks marked
``retryable=True`` -- *idempotent* bodies such as the parallel
schedules' form and step tasks, which recompute their output from their
inputs -- get one bounded inline retry
in the waiting thread before their failure propagates.  The
``worker.hang`` / ``worker.die`` fault points live in :meth:`submit` so
chaos tests can prove all of it deterministically.
"""

from __future__ import annotations

import operator
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Callable, Iterable

import numpy as np

from repro.core.workspace import axpy
from repro.guard import faults
from repro.obs import telemetry


class PoolBrokenError(RuntimeError):
    """The pool's executor is dead (shut down, or its workers died);
    submitting to it would lose the task.  Guarded dispatch treats this
    as an infrastructure failure: rebuild the pool, degrade the call."""


class TaskTimeoutError(TimeoutError):
    """A task group's barrier overran its deadline: at least one worker
    is hung (or the deadline was unrealistic).  The group's remaining
    futures are cancelled/abandoned before this is raised."""


def available_cores() -> int:
    """Cores available to this process (the paper's "P threads")."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_threads(threads: int | None) -> int:
    """Validate an explicit thread count, defaulting ``None`` to all cores.

    ``threads=0`` used to silently mean "all cores" through ``threads or
    available_cores()`` expressions, masking caller bugs; only ``None``
    carries that meaning now.  Any integer type but ``bool`` is accepted
    and returned as an ``int``.
    """
    if threads is None:
        return available_cores()
    try:
        n = operator.index(threads)  # any integer type, NumPy's too
    except TypeError:
        n = 0
    if isinstance(threads, bool) or n < 1:
        raise ValueError(
            f"threads must be a positive integer or None (got {threads!r}); "
            "pass None for the all-cores default"
        )
    return n


class WorkerPool:
    """Thin, persistent thread pool with barrier-style task groups."""

    def __init__(self, workers: int | None = None):
        self.workers = workers or available_cores()
        self._ex = ThreadPoolExecutor(max_workers=self.workers)
        self._broken = False

    @property
    def broken(self) -> bool:
        """Has this pool detected (or been told of) a dead executor?"""
        return self._broken

    # -- task API ----------------------------------------------------------
    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        if faults.active:
            if faults.should_fire("worker.die"):
                self._broken = True
            if faults.should_fire("worker.hang"):
                inner = fn

                def fn(*a, **kw):  # noqa: F811 - deliberate shadow
                    faults.hang()
                    return inner(*a, **kw)
        if self._broken:
            raise PoolBrokenError(
                f"worker pool ({self.workers} workers) is broken; "
                f"rebuild it before submitting")
        try:
            return self._ex.submit(fn, *args, **kwargs)
        except RuntimeError as e:
            # the executor was shut down underneath us (interpreter
            # teardown race, or an external kill): latch broken so every
            # later submit fails fast with the typed error
            self._broken = True
            raise PoolBrokenError(f"worker pool executor is dead: {e}") from e

    def map_wait(self, fn: Callable, items: Iterable,
                 timeout: float | None = None,
                 retryable: bool = False) -> list:
        """Submit ``fn(item)`` for every item and wait (ordered results).

        Routed through :meth:`submit` so subclasses (e.g. the tracing pool)
        see every task.  ``timeout`` bounds the whole barrier
        (:class:`TaskTimeoutError` past it); ``retryable`` marks the tasks
        idempotent, granting each one bounded inline retry on failure.
        """
        group = self.group()
        for it in items:
            group.run(fn, it, retryable=retryable)
        return group.wait(timeout=timeout)

    def group(self) -> "TaskGroup":
        return TaskGroup(self)

    # -- lifecycle ----------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the executor.  ``wait=False`` abandons it without joining
        (the supervision path: a wedged worker must not hang teardown);
        queued-but-unstarted tasks are cancelled."""
        self._broken = True
        self._ex.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class TaskGroup:
    """Collects futures; ``wait()`` is the ``taskwait`` barrier."""

    def __init__(self, pool: WorkerPool):
        self._pool = pool
        self._futures: list[Future] = []
        self._tasks: list[tuple[Callable, tuple, dict, bool]] = []

    def run(self, fn: Callable, *args, retryable: bool = False,
            **kwargs) -> Future:
        """Submit one task.  ``retryable=True`` asserts the task is
        idempotent (recomputes its output from its inputs, no
        accumulation), granting it one inline retry at the barrier."""
        fut = self._pool.submit(fn, *args, **kwargs)  # honors subclasses
        self._futures.append(fut)
        self._tasks.append((fn, args, kwargs, retryable))
        return fut

    def wait(self, timeout: float | None = None) -> list:
        """Barrier: results of every submitted task, in submission order.

        Every future is retrieved even when an early one raises --
        abandoning the rest would leak "exception was never retrieved"
        warnings and leave ``_futures`` populated for a reused group.  The
        first exception (in submission order) is re-raised after the
        barrier completes.

        ``timeout`` (seconds) bounds the *whole* barrier: when the
        deadline passes before every task finished, remaining futures are
        cancelled (running ones are abandoned -- their eventual exception
        is swallowed via a done-callback so nothing warns at gc) and
        :class:`TaskTimeoutError` is raised.  A task submitted with
        ``retryable=True`` whose worker raised is retried **once, inline
        in the waiting thread** -- the slab kernels this is for are
        idempotent, and the waiter is the one thread known to still be
        alive when workers are dying.
        """
        futures, self._futures = self._futures, []
        tasks, self._tasks = self._tasks, []
        deadline = None if timeout is None else time.monotonic() + timeout
        results: list = []
        first_exc: BaseException | None = None
        for i, f in enumerate(futures):
            try:
                if deadline is None:
                    results.append(f.result())
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise FuturesTimeout()
                    results.append(f.result(timeout=remaining))
            except FuturesTimeout:
                self._abandon(futures[i:])
                raise TaskTimeoutError(
                    f"task group barrier overran its {timeout:g}s "
                    f"deadline ({len(futures) - i} task(s) unfinished)"
                ) from None
            except BaseException as exc:  # noqa: BLE001 - barrier must drain
                fn, args, kwargs, retryable = tasks[i]
                if retryable and isinstance(exc, Exception):
                    telemetry.incr("pool.task_retries")
                    try:
                        results.append(fn(*args, **kwargs))
                        continue
                    except Exception as retry_exc:  # retry failed too
                        exc = retry_exc
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc
        return results

    @staticmethod
    def _abandon(futures: list[Future]) -> None:
        """Cancel what can be cancelled; swallow the rest's outcomes so
        abandoned futures never warn "exception was never retrieved"."""
        for f in futures:
            f.cancel()
            f.add_done_callback(lambda fut: fut.cancelled() or
                                fut.exception())


# --------------------------------------------------------------------------
# parallel element-wise kernels (bandwidth-bound work of Section 4.5)
# --------------------------------------------------------------------------
def _row_slabs(nrows: int, parts: int) -> list[slice]:
    bounds = np.linspace(0, nrows, parts + 1).astype(int)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def parallel_axpy(
    pool: WorkerPool, out: np.ndarray, x: np.ndarray, alpha: float,
    scratch: np.ndarray | None = None,
) -> None:
    """``out += alpha * x`` split row-wise across the pool: :func:`axpy
    <repro.core.workspace.axpy>` per slab, one task each, allocation-free
    with ``scratch`` (an untyped byte buffer of at least ``out.nbytes``,
    cut along the same rows, so slabs write disjoint scratch).

    NOT retryable: ``out += ...`` accumulates in place, so a re-run after a
    partially-applied slab would double-add.
    """
    rowbytes = out[:1].nbytes

    def work(sl: slice) -> None:
        rows = None
        if scratch is not None:
            rows = scratch[sl.start * rowbytes:sl.stop * rowbytes]
        axpy(out[sl], x[sl], alpha, rows)

    g = pool.group()
    for sl in _row_slabs(out.shape[0], pool.workers):
        g.run(work, sl)
    g.wait()
