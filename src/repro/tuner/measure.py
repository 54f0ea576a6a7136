"""Timed trials: turning candidate plans into measured winners.

``measure_plan`` times one plan on given operands (median of ``trials``
after a warmup run, exactly like the paper's Section 5 protocol) and
reports effective GFLOPS (Equation 3).  Plans execute through
``dispatch.execute_plan``, so every tuned knob -- including a parallel
plan's scheme -- is timed exactly as dispatch would serve it.
``tune_shape`` sweeps the ranked candidate shortlist for one problem
shape under a wall-clock budget (with ``threads > 1`` that shortlist
spans the parallel schemes) and
commits the winner to the plan cache; ``tune`` does that for many shapes
and returns ``bench``-compatible result rows for reporting.

Operand generation is deterministic: :func:`tuning_operands` derives a
per-(shape, dtype) RNG stream from a single seed, so two tunes of the
same shapes time *identical* matrices -- run-to-run tuning differences
are then attributable to the machine, never to the data.
"""

from __future__ import annotations

import dataclasses
import time
import zlib

import numpy as np

from repro.bench.metrics import effective_gflops, median_time
from repro.bench.runner import ResultRow
from repro.parallel.pool import WorkerPool, resolve_threads
from repro.tuner import dispatch
from repro.tuner.cache import PlanCache
from repro.tuner.dispatch import _shared_cache
from repro.tuner.space import Plan, enumerate_plans

#: default per-shape wall-clock budget for a tuning sweep (seconds)
DEFAULT_BUDGET_S = 30.0

#: default size of the measured shortlist per shape
DEFAULT_CANDIDATES = 8


def tuning_operands(
    p: int, q: int, r: int, dtype: str = "float64", seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic ``(A, B)`` test operands for tuning one shape.

    The stream is seeded from ``(seed, p, q, r, dtype)`` via a
    ``SeedSequence``, so repeated tunes of a shape see bit-identical
    operands (reproducible timings) while different shapes/dtypes get
    statistically independent data (no accidental structure shared
    across the sweep).
    """
    ss = np.random.SeedSequence(
        [seed, p, q, r, zlib.crc32(str(dtype).encode())]
    )
    g_a, g_b = (np.random.default_rng(c) for c in ss.spawn(2))
    A = (2.0 * g_a.random((p, q)) - 1.0).astype(dtype, copy=False)
    B = (2.0 * g_b.random((q, r)) - 1.0).astype(dtype, copy=False)
    return A, B


@dataclasses.dataclass(frozen=True)
class Measurement:
    """One timed plan: the tuner's unit of evidence."""

    plan: Plan
    seconds: float
    gflops: float

    def describe(self) -> str:
        return f"{self.plan.describe():>36}: {self.seconds:8.4f}s  {self.gflops:8.2f} eff.GFLOPS"


@dataclasses.dataclass(frozen=True)
class ShapeReport:
    """Everything measured while tuning one shape."""

    p: int
    q: int
    r: int
    dtype: str
    threads: int
    measurements: tuple[Measurement, ...]

    @property
    def best(self) -> Measurement:
        return min(self.measurements, key=lambda m: m.seconds)

    @property
    def label(self) -> str:
        return f"{self.p}x{self.q}x{self.r}"

    def rows(self) -> list[ResultRow]:
        """Render as ``bench.report``-compatible result rows."""
        return [
            ResultRow(
                algorithm=m.plan.describe(), workload=self.label, n=self.p,
                seconds=m.seconds, gflops=m.gflops,
                detail=f"{self.dtype},{self.threads}t"
                       + (" <-- winner" if m is self.best else ""),
            )
            for m in self.measurements
        ]


def measure_plan(
    plan: Plan,
    A,
    B,
    trials: int = 3,
    warmup: int = 1,
    pool: WorkerPool | None = None,
) -> Measurement:
    """Median-of-``trials`` timing of one plan on concrete operands.

    Timed through the same workspace-arena path dispatch serves (the
    warmup call builds the arena), so the cache commits to numbers the
    steady state will actually reproduce.  Every fast candidate may run
    the compiled chain kernels, so it always gets at least one warmup
    call: its first execution may pay a C compile + ``dlopen``, which
    belongs to no steady state and must never land inside a timed trial.
    """
    if not plan.is_dgemm:
        warmup = max(warmup, 1)
    p, q = A.shape
    r = B.shape[1]
    # throwaway arena: a candidate that loses must not grow the thread's
    # serving arena to its footprint
    workspace = dispatch.build_workspace(plan, p, q, r, A.dtype, B.dtype)
    sec = median_time(
        lambda: dispatch.execute_plan(plan, A, B, pool=pool,
                                      workspace=workspace),
        trials=trials, warmup=warmup,
    )
    return Measurement(plan, sec, effective_gflops(p, q, r, sec))


def tune_shape(
    p: int,
    q: int,
    r: int,
    dtype: str = "float64",
    threads: int | None = None,
    budget_s: float = DEFAULT_BUDGET_S,
    trials: int = 3,
    max_candidates: int = DEFAULT_CANDIDATES,
    cache: PlanCache | None = None,
    persist: bool = True,
    seed: int = 0,
    pool: WorkerPool | None = None,
) -> ShapeReport:
    """Measure the ranked shortlist for one shape; cache the winner.

    Candidates are tried in cost-model order, so even a tight ``budget_s``
    times the most promising plans first; the dgemm baseline is always
    measured (it is in every shortlist).  The winner goes into ``cache``
    (and to disk, unless ``persist=False``).

    ``threads`` defaults to every available core -- the same default
    ``matmul`` dispatches with, so tune-then-dispatch hits the cache.
    """
    threads = resolve_threads(threads)
    cache = cache if cache is not None else _shared_cache()
    A, B = tuning_operands(p, q, r, dtype=dtype, seed=seed)
    plans = enumerate_plans(p, q, r, threads=threads, dtype=dtype,
                            max_candidates=max_candidates)
    deadline = time.monotonic() + budget_s
    measured: list[Measurement] = []
    for plan in plans:
        if measured and time.monotonic() >= deadline:
            break
        measured.append(measure_plan(plan, A, B, trials=trials, pool=pool))
    if not any(m.plan.is_dgemm for m in measured):
        baseline = next((pl for pl in plans if pl.is_dgemm), None)
        if baseline is not None:
            measured.append(measure_plan(baseline, A, B, trials=trials,
                                         pool=pool))
    report = ShapeReport(p, q, r, dtype, threads, tuple(measured))
    best = report.best
    cache.put(p, q, r, dtype, threads, best.plan,
              seconds=best.seconds, gflops=best.gflops)
    if persist:
        cache.save()
    return report


def tune(
    shapes,
    dtype: str = "float64",
    threads: int | None = None,
    budget_s: float = DEFAULT_BUDGET_S,
    trials: int = 3,
    max_candidates: int = DEFAULT_CANDIDATES,
    cache: PlanCache | None = None,
    persist: bool = True,
    verbose: bool = False,
    seed: int = 0,
) -> list[ShapeReport]:
    """Tune a list of ``(p, q, r)`` shapes; ``budget_s`` is per shape.

    Returns one :class:`ShapeReport` per shape (flatten with ``.rows()``
    for ``bench.report`` rendering).  ``threads`` defaults to every
    available core, matching ``matmul``'s dispatch default.
    Parallel-scheme measurements share one worker pool so repeated shapes
    don't pay pool startup each time.  ``seed`` feeds
    :func:`tuning_operands`, so two runs over the same shape list measure
    identical data.
    """
    threads = resolve_threads(threads)
    reports: list[ShapeReport] = []
    pool = WorkerPool(threads) if threads > 1 else None
    try:
        for p, q, r in shapes:
            rep = tune_shape(
                p, q, r, dtype=dtype, threads=threads, budget_s=budget_s,
                trials=trials, max_candidates=max_candidates, cache=cache,
                persist=persist, pool=pool, seed=seed,
            )
            if verbose:
                print(f"-- {rep.label} ({dtype}, {threads} threads)")
                for m in rep.measurements:
                    mark = " <--" if m is rep.best else ""
                    print(f"  {m.describe()}{mark}")
            reports.append(rep)
    finally:
        if pool is not None:
            pool.shutdown()
    return reports
