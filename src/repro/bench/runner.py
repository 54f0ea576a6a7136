"""Experiment drivers that regenerate the paper's figures/tables as text.

Each ``run_*`` function returns a list of result rows and prints a
paper-style table; the ``benchmarks/`` scripts wrap these in
pytest-benchmark entry points.  Policy knobs follow Section 5:

- sequential experiments report the best of 1..3 recursion steps
  (rectangular: 1..2), like the paper;
- parallel experiments take the best of (BFS, HYBRID) at low core counts
  and the best of (DFS, HYBRID) at full core count;
- every timing is a median of five runs (``repro.bench.metrics``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from repro.bench.metrics import effective_gflops, median_time
from repro.bench.workloads import Workload
from repro.codegen import compile_algorithm
from repro.core.algorithm import FastAlgorithm
from repro.parallel import WorkerPool, blas, multiply_parallel
from repro.util.validation import relative_error


@dataclasses.dataclass
class ResultRow:
    algorithm: str
    workload: str
    n: int
    seconds: float
    gflops: float
    detail: str = ""


def _best_over_steps(
    multiply: Callable, A: np.ndarray, B: np.ndarray, step_options: Sequence[int],
    trials: int,
) -> tuple[float, int]:
    best, best_steps = np.inf, step_options[0]
    for s in step_options:
        sec = median_time(lambda: multiply(A, B, steps=s), trials=trials, warmup=1)
        if sec < best:
            best, best_steps = sec, s
    return best, best_steps


def run_sequential(
    algorithms: dict[str, FastAlgorithm | None],
    workloads: Sequence[Workload],
    step_options: Sequence[int] = (1, 2),
    cse: bool = False,
    trials: int = 5,
    title: str = "",
    quiet: bool = False,
) -> list[ResultRow]:
    """Sequential sweep: every algorithm on every workload, single-threaded
    vendor BLAS underneath (algorithm None = plain dgemm baseline)."""
    rows: list[ResultRow] = []
    with blas.blas_threads(1):
        for wl in workloads:
            A, B = wl.matrices()
            for name, alg in algorithms.items():
                if alg is None:
                    sec = median_time(lambda: A @ B, trials=trials, warmup=1)
                    detail = "dgemm"
                else:
                    mult = compile_algorithm(alg, cse=cse)
                    sec, steps = _best_over_steps(mult, A, B, step_options, trials)
                    detail = f"best of steps={steps}"
                rows.append(ResultRow(
                    name, wl.label, wl.p, sec,
                    effective_gflops(wl.p, wl.q, wl.r, sec), detail,
                ))
    if not quiet:
        print_table(rows, title=title)
    return rows


def run_parallel(
    algorithms: dict[str, FastAlgorithm | None],
    workloads: Sequence[Workload],
    cores: int,
    schemes: Sequence[str] = ("bfs", "hybrid"),
    step_options: Sequence[int] = (1, 2),
    trials: int = 3,
    title: str = "",
    quiet: bool = False,
) -> list[ResultRow]:
    """Parallel sweep at a core count; fast algorithms take the best over
    (scheme x steps), the baseline is the vendor gemm at ``cores`` threads."""
    rows: list[ResultRow] = []
    with WorkerPool(cores) as pool:
        for wl in workloads:
            A, B = wl.matrices()
            for name, alg in algorithms.items():
                if alg is None:
                    with blas.blas_threads(cores):
                        sec = median_time(lambda: A @ B, trials=trials, warmup=1)
                    detail = f"dgemm({cores}t)"
                else:
                    best, detail = np.inf, ""
                    for scheme in schemes:
                        for s in step_options:
                            sec = median_time(
                                lambda: multiply_parallel(
                                    A, B, alg, steps=s, scheme=scheme,
                                    pool=pool, threads=cores,
                                ),
                                trials=trials, warmup=1,
                            )
                            if sec < best:
                                best, detail = sec, f"{scheme}, steps={s}"
                    sec = best
                rows.append(ResultRow(
                    name, wl.label, wl.p, sec,
                    effective_gflops(wl.p, wl.q, wl.r, sec) / cores, detail,
                ))
    if not quiet:
        print_table(rows, title=title, per_core=True)
    return rows


def check_accuracy(
    algorithms: dict[str, FastAlgorithm],
    workload: Workload,
    steps: int = 1,
) -> dict[str, float]:
    """Relative errors vs the classical product (APA algorithms stand out)."""
    A, B = workload.matrices()
    ref = A @ B
    out = {}
    for name, alg in algorithms.items():
        mult = compile_algorithm(alg)
        out[name] = relative_error(mult(A, B, steps=steps), ref)
    return out


def print_table(rows: list[ResultRow], title: str = "", per_core: bool = False) -> None:
    unit = "eff. GFLOPS/core" if per_core else "eff. GFLOPS"
    if title:
        print(f"\n== {title} ==")
    print(f"{'algorithm':<16} {'workload':<18} {unit:>18} {'seconds':>10}  detail")
    for r in rows:
        print(f"{r.algorithm:<16} {r.workload:<18} {r.gflops:>18.2f} "
              f"{r.seconds:>10.4f}  {r.detail}")


def winners_by_workload(rows: list[ResultRow]) -> dict[str, str]:
    """workload label -> fastest algorithm name (used by shape-matching
    assertions in the benchmark suite)."""
    best: dict[str, ResultRow] = {}
    for r in rows:
        cur = best.get(r.workload)
        if cur is None or r.seconds < cur.seconds:
            best[r.workload] = r
    return {k: v.algorithm for k, v in best.items()}


def speedup_over(rows: list[ResultRow], baseline: str) -> dict[tuple[str, str], float]:
    """(algorithm, workload) -> speedup vs the named baseline algorithm."""
    base = {r.workload: r.seconds for r in rows if r.algorithm == baseline}
    out = {}
    for r in rows:
        if r.algorithm != baseline and r.workload in base:
            out[(r.algorithm, r.workload)] = base[r.workload] / r.seconds
    return out
