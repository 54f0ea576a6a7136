"""The traced pass: where a call's time goes, layer by layer.

A layer is a module under ``src/repro``.  Every number here is taken from
outside, by timing public functions around the workload's *primary case*
(its first shape; 256^3 for ``dispatch_mix``) -- spans inside the generated
module and ``CompiledChains`` are a later issue.  None of it is gated; the
README says which end-to-end metric each layer number should move, and on
which workload.

The pass has two parts.  ``traced_rounds`` repeats the workload's rounds
for a third of the time, each round once plain and once with harness
spans (``call`` -> ``lookup`` / ``arena`` / ``execute``) and ``repro.obs``
on; the wall-time ratio of the two is ``obs.overhead_ratio``.  The probes
after it time one layer each.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from child import (Context, Refusal, Tracer, median, percentile,
                   refuse_on_drift, time_is_up)
from hostinfo import ram_bytes, read_llc_bytes
from workloads import PlanSpec

_CC = PlanSpec("strassen", 1, backend="compiled")
_NP = PlanSpec("strassen", 1)
_PARALLEL = {"bfs": PlanSpec("strassen", 1, scheme="bfs"),
             "dfs": PlanSpec("strassen", 1, scheme="dfs"),
             "hybrid": PlanSpec("strassen", 2, scheme="hybrid")}
#: the batched probe: 16 stacked 256^3 float64 products at T threads
_BATCH, _BATCH_DIM = 16, 256
#: stream arrays when the last-level cache cannot be read from sysfs
_STREAM_FALLBACK_MB = 256.0
#: and their ceiling (see ``probe_stream``)
_STREAM_CAP_MB = 256.0


def m(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def reps(fn, n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def interleaved(fns: dict, n: int) -> dict[str, list[float]]:
    """``n`` rounds of every function back to back, rotating the order."""
    names = list(fns)
    out = {name: [] for name in names}
    for i in range(n):
        for name in names[i % len(names):] + names[:i % len(names)]:
            out[name] += reps(fns[name], 1)
    return out


class Primary:
    """The primary case's operands and plan builders, for the probes."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.ci = ctx.workload.primary
        self.case = ctx.workload.cases[self.ci]
        self.shape = self.case.shape
        self.dtype = self.case.dtype
        self.threads = ctx.threads[self.ci]
        self.A, self.B, self.C = ctx.A[self.ci], ctx.B[self.ci], ctx.C[self.ci]

    def plan(self, spec: PlanSpec, threads: int | None = None):
        return self.ctx.tuner.Plan(
            algorithm=spec.algorithm, steps=spec.steps, scheme=spec.scheme,
            backend=spec.backend, threads=threads or self.threads)

    def arena(self, plan):
        """A throwaway arena: probes must not evict the serving set."""
        return self.ctx.tuner.build_workspace(
            plan, *self.shape, self.A.dtype, self.B.dtype)

    def runner(self, plan, pool=None):
        ws = self.arena(plan)
        execute = self.ctx.tuner.execute_plan
        return lambda: execute(plan, self.A, self.B, pool=pool, out=self.C,
                               workspace=ws)

    def blas(self, threads: int | None = None):
        t = threads or self.threads
        blas_threads = self.ctx.blas.blas_threads

        def run():
            with blas_threads(t):
                np.matmul(self.A, self.B, out=self.C)
        return run


# ------------------------------------------------------------ traced rounds
def traced_rounds(ctx: Context, seconds: float) -> dict:
    """Each round once plain, once traced; returns the overhead ratios and
    the program's own span totals for the traced ``repro.matmul`` calls."""
    from repro import obs

    ctx.tracer = Tracer()
    obs.reset()
    overhead = []
    started = time.perf_counter()
    done = 0
    while True:
        wall = {}
        for traced in ((False, True) if done % 2 == 0 else (True, False)):
            total = 0.0
            for requests, variants, limit in ctx.units(done):
                key = "tuned"
                if traced:
                    # only ``call`` goes through repro.matmul here, so the
                    # program's dispatch.* spans belong to it alone
                    key = "call"
                    variants = ["call" if v == "tuned" else v
                                for v in variants if v != "untuned"]
                    variants.append("replay")
                    obs.enable()
                try:
                    times = ctx.run_unit(requests, variants, limit, done)
                finally:
                    obs.disable()
                total += sum(t for t in times[key][0] if t is not None)
            wall[traced] = total
        overhead.append(wall[True] / wall[False])
        done += 1
        if time_is_up(started, done, seconds, floor=2):
            break
    program = sum(s["total_s"] for s in obs.snapshot()["spans"]
                  if s["name"] in ("dispatch.lookup", "dispatch.execute"))
    return {"rounds": done, "overhead": overhead, "program_span_s": program}


# ------------------------------------------------------------------- probes
def probe_tuner(ctx: Context, pr: Primary) -> tuple[dict, dict]:
    tuner = ctx.tuner
    policy = tuner.get_policy("never")
    p, q, r = pr.shape
    queries = {
        "cache": ((p, q, r), ctx.tuned_cache, 200),
        "nearest": ((p + 1, q + 1, r + 1), ctx.tuned_cache, 200),
        "trivial": ((32, 32, 32), ctx.tuned_cache, 200),
        "model": ((p, q, r), ctx.empty_cache, 5),
    }
    out, sources = {}, {}
    for name, (shape, cache, n) in queries.items():
        def lookup():
            return policy.select(*shape, pr.dtype, pr.threads, cache)
        sources[name] = lookup()[1]
        seconds = median(reps(lookup, n))
        if name == "model":
            out["tuner.lookup_model_ms"] = m(seconds * 1e3, "ms")
        else:
            out[f"tuner.lookup_{name}_us"] = m(seconds * 1e6, "us")
    for source in ("cache", "nearest", "transfer", "model", "trivial"):
        out[f"tuner.calls_by_source.{source}"] = m(
            ctx.sources.get(source, 0), "count")
    out["tuner.space.candidates"] = m(len(tuner.enumerate_plans(
        p, q, r, threads=pr.threads, dtype=pr.dtype)), "count")
    out["tuner.tune_s"] = m(ctx.setup_parts["tune"][1], "s")
    out["tuner.tune_candidates_measured"] = m(
        sum(len(rep.measurements) for rep in ctx.reports.values()), "count")
    out["tuner.tune_budget_hit"] = m(ctx.tune_budget_hit, "count")
    return out, {"lookup_sources": sources}


def probe_cost(ctx: Context, pr: Primary) -> tuple[dict, dict]:
    """Does ``core.cost`` order plans the way the clock does?"""
    from repro.core.cost import plan_cost
    from scipy.stats import spearmanr

    p, q, r = pr.shape
    timed = {meas.plan: meas.seconds
             for meas in ctx.reports[pr.ci].measurements}
    for spec in pr.case.pinned:
        calls = ctx.calls.get((f"fast:{spec.label}", pr.ci))
        if calls:
            timed.setdefault(ctx.plan_of(spec, pr.case), median(calls))
    plans = list(timed)
    cost = [plan_cost(
        None if plan.is_dgemm else ctx.get_algorithm(plan.algorithm),
        p, q, r, plan.steps, scheme=plan.scheme, threads=plan.threads,
        subgroup=plan.subgroup, backend=plan.backend) for plan in plans]
    seconds = [timed[plan] for plan in plans]
    spearman = float(spearmanr(cost, seconds)[0])
    model = ctx.tuner.get_plan(p, q, r, pr.dtype, pr.threads,
                               cache=ctx.empty_cache)[0]
    t_model = timed.get(model) or median(ctx.calls["untuned", pr.ci])
    table = sorted(zip(cost, seconds, (pl.describe() for pl in plans)))
    return ({"cost.rank_spearman": m(spearman, "ratio"),
             "cost.model_regret": m(t_model / min(seconds), "ratio")},
            {"cost_table": [dict(cost=c, seconds=s, plan=d)
                            for c, s, d in table]})


def probe_dispatch(ctx: Context, pr: Primary, rounds: dict) -> dict:
    """``repro.matmul`` = lookup + arena + execute + glue, on the primary
    case; the call percentiles are over every single request served.  The
    ``obs`` numbers come from the same traced rounds, so they are here."""
    tuner, tracer = ctx.tuner, ctx.tracer
    from repro.tuner.dispatch import evict_workspace

    parts = {"lookup": [], "arena": [], "execute": []}
    for name, t0, t1, _, request in tracer.spans:
        if name in parts and ctx.request_case[request] == pr.ci:
            parts[name].append((t1 - t0) * 1e-9)
    call = ctx.calls["call", pr.ci]
    singles = [t for (variant, ci), ts in ctx.calls.items()
               if variant == "call" and not ctx.workload.cases[ci].batch
               for t in ts]
    lookup, arena, execute = (median(parts[k]) for k in
                              ("lookup", "arena", "execute"))
    plan = pr.plan(_CC)
    args = (plan, *pr.shape, pr.A.dtype, pr.B.dtype)
    tuner.workspace_for(*args)
    hit = median(reps(lambda: tuner.workspace_for(*args), 200))
    miss = []
    for _ in range(3):
        evict_workspace(*args)
        t0 = time.perf_counter()
        ws = tuner.workspace_for(*args)
        miss.append(time.perf_counter() - t0)
        if ws.uses != 1:
            raise Refusal("workspace_for served a cached arena right after "
                          "evict_workspace: the miss cannot be timed")
    evict_workspace(*args)
    return {
        "dispatch.lookup_us": m(lookup * 1e6, "us"),
        "dispatch.arena_us": m(arena * 1e6, "us"),
        "dispatch.execute_ms": m(execute * 1e3, "ms"),
        "dispatch.glue_us": m(
            (median(call) - (lookup + arena + execute)) * 1e6, "us"),
        "dispatch.primary_call_us": m(median(call) * 1e6, "us"),
        "dispatch.call_us_p50": m(median(singles) * 1e6, "us"),
        "dispatch.call_us_p99": m(percentile(singles, 0.99) * 1e6, "us"),
        "dispatch.arena_hit_us": m(hit * 1e6, "us"),
        "dispatch.arena_miss_ms": m(median(miss) * 1e3, "ms"),
        "dispatch.arena_hit_frac": m(
            ctx.arena_hits / max(ctx.arena_calls, 1), "ratio"),
        "obs.overhead_ratio": m(median(rounds["overhead"]), "ratio"),
        "obs.span_agreement": m(
            rounds["program_span_s"]
            / sum(tracer.seconds("lookup") + tracer.seconds("execute")),
            "ratio"),
    }


def probe_workspace(ctx: Context, pr: Primary) -> dict:
    from repro.core.workspace import track_allocations

    tuner = ctx.tuner
    plan = pr.plan(_CC)
    ws = pr.arena(plan)

    def run():
        tuner.execute_plan(plan, pr.A, pr.B, out=pr.C, workspace=ws)
    run()
    with track_allocations() as report:
        run()
    stats = ws.stats()
    overflows = stats["overflow_allocations"]
    served = [ctx.plan_of(spec, pr.case) for spec in pr.case.pinned]
    for cache in (ctx.tuned_cache, ctx.empty_cache):
        served.append(tuner.get_plan(*pr.shape, pr.dtype, pr.threads,
                                     cache=cache)[0])
    for plan in served:
        arena = tuner.workspace_for(plan, *pr.shape, pr.A.dtype, pr.B.dtype)
        if arena is not None:
            overflows += arena.overflow_allocations
    return {
        "workspace.arena_mb": m(stats["nbytes"] / 2**20, "MB"),
        "workspace.high_water_frac": m(
            stats["high_water"] / stats["nbytes"], "ratio"),
        "workspace.overflow_allocations": m(overflows, "count"),
        "workspace.warm_alloc_kb": m(report.peak_bytes / 1024, "KB"),
    }


def probe_gemm(ctx: Context, pr: Primary) -> tuple[dict, dict]:
    """The leaf gemm of the pinned plan (strassen, one step) beside the
    full-size one: Section 3.4's ramp-up penalty, measured."""
    from repro.bench.metrics import effective_gflops
    from repro.parallel.gemm import dgemm

    alg = ctx.get_algorithm(_CC.algorithm)
    mm, kk, nn = alg.base_case
    p, q, r = pr.shape
    lp, lq, lr = p // mm, q // kk, r // nn
    rng = np.random.default_rng(ctx.seed)
    S = rng.uniform(-1, 1, (lp, lq)).astype(pr.dtype)
    Tm = rng.uniform(-1, 1, (lq, lr)).astype(pr.dtype)
    M = np.empty((lp, lr), dtype=pr.dtype)
    dgemm(S, Tm, threads=pr.threads, out=M)
    leaf = median(reps(lambda: dgemm(S, Tm, threads=pr.threads, out=M), 7))
    full = median(ctx.calls["blas", pr.ci])
    leaf_gflops = effective_gflops(lp, lq, lr, leaf)
    full_gflops = effective_gflops(p, q, r, full)
    scaling = interleaved({"one": pr.blas(1), "all": pr.blas(ctx.T)}, 2)
    blas_threads = ctx.blas.blas_threads

    def ctx_switch():
        with blas_threads(pr.threads):
            pass
    leaf_total = alg.rank ** _CC.steps * leaf
    return ({
        "gemm.leaf_ms": m(leaf * 1e3, "ms"),
        "gemm.leaf_gflops": m(leaf_gflops, "GFLOPS"),
        "gemm.leaf_total_ms": m(leaf_total * 1e3, "ms"),
        "gemm.leaf_vs_full": m(leaf_gflops / full_gflops, "ratio"),
        "blas.baseline_gflops": m(full_gflops, "GFLOPS"),
        "blas.baseline_drift": m(refuse_on_drift(ctx), "ratio"),
        "blas.thread_scaling": m(
            median(scaling["one"]) / median(scaling["all"]), "ratio"),
        "blas.ctx_us": m(median(reps(ctx_switch, 1000)) * 1e6, "us"),
    }, {"leaf_total_s": leaf_total, "leaf_shape": [lp, lq, lr]})


def addition_bytes(ctx: Context, pr: Primary, spec: PlanSpec) -> float:
    """Bytes the S/T/C additions move, *computed* from the Section 3.2
    read/write counts times the block size -- cache misses not included."""
    from repro.core.cost import addition_rw_counts

    alg = ctx.get_algorithm(spec.algorithm)
    mm, kk, nn = alg.base_case
    reads, writes = addition_rw_counts(alg, "write_once")
    p, q, r = pr.shape
    total, products = 0.0, 1
    for _ in range(spec.steps):
        p, q, r = p // mm, q // kk, r // nn
        block = (p * q + q * r + p * r) / 3 * np.dtype(pr.dtype).itemsize
        total += products * (reads + writes) * block
        products *= alg.rank
    return total


def probe_sequential(ctx: Context, pr: Primary, leaf_total_s: float,
                     triad_gib_s: float | None) -> tuple[dict, dict]:
    """The generated NumPy module and the compiled C chains on the same
    plan: what is not leaf gemm (additions, combine, peel, glue)."""
    runs = {"blas": pr.blas(), "codegen": pr.runner(pr.plan(_NP)),
            "cbackend": pr.runner(pr.plan(_CC))}
    for run in runs.values():
        run()
    times = interleaved(runs, 3)
    out = {}
    for name, spec in (("codegen", _NP), ("cbackend", _CC)):
        seconds = median(times[name])
        nongemm = seconds - leaf_total_s
        out[f"{name}.fast_vs_blas"] = m(
            median([b / t for b, t in zip(times["blas"], times[name])]),
            "ratio")
        out[f"{name}.nongemm_ms"] = m(nongemm * 1e3, "ms")
        out[f"{name}.nongemm_frac"] = m(nongemm / seconds, "ratio")
        if triad_gib_s:
            stream_s = addition_bytes(ctx, pr, spec) / (triad_gib_s * 2**30)
            out[f"{name}.nongemm_over_stream"] = m(nongemm / stream_s, "ratio")
    out["cbackend.vs_codegen"] = m(
        median(times["codegen"]) / median(times["cbackend"]), "ratio")
    return out, {"seq_1t_s": median(times["cbackend"])}


_COMPILE_PROBE = """
import json, time
import repro
from repro.algorithms import get_algorithm
from repro.codegen import cbackend, compile_algorithm
t0 = time.perf_counter()
cbackend.compile_chains("strassen")
t1 = time.perf_counter()
compile_algorithm(get_algorithm("strassen"))
t2 = time.perf_counter()
print(json.dumps({"cbackend_s": t1 - t0, "codegen_s": t2 - t1}))
"""

_STREAM_PROBE = """
import json, sys, time
import numpy as np
from repro.parallel.pool import WorkerPool, parallel_axpy
size_mb, T = float(sys.argv[1]), int(sys.argv[2])
rows = max(T, 64)
cols = int(size_mb * 2**20 / 8) // rows
a, b = np.ones((rows, cols)), np.ones((rows, cols))
def triad(run):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return 3 * a.nbytes / sorted(times)[1] / 2**30
with WorkerPool(T) as pool:
    print(json.dumps({"1": triad(lambda: np.add(a, b, out=a)),
                      "T": triad(lambda: parallel_axpy(pool, a, b, 1.0))}))
"""


def _fresh_process(code: str, *argv: str, env: dict | None = None) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env or os.environ.copy(),
        capture_output=True, text=True, timeout=120, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def probe_compile(ctx: Context) -> dict:
    """Cold C compile (fresh cache dir) and disk-hit load, each in a new
    process; the generated module's compile in the same new process."""
    cold_dir = ctx.workdir / "cold_cache"
    cold = _fresh_process(
        _COMPILE_PROBE, env={**os.environ, "REPRO_CACHE_DIR": str(cold_dir)})
    warm = _fresh_process(_COMPILE_PROBE)
    return {"cbackend.compile_s": m(cold["cbackend_s"], "s"),
            "cbackend.load_ms": m(warm["cbackend_s"] * 1e3, "ms"),
            "codegen.compile_ms": m(warm["codegen_s"] * 1e3, "ms")}


def probe_stream(ctx: Context) -> tuple[dict, dict]:
    """STREAM triad ``a += b`` in a child process, the kernel and the
    slab-parallel form of ``parallel.add.stream_triad`` on one pair of
    arrays.  Each array is four times the last-level cache read from sysfs,
    within a quarter of RAM for the pair -- and within _STREAM_CAP_MB,
    because a VM reports its host's socket-wide L3 (260 MB on the reference
    box) and first touches there cost up to 7 ms/MB.  The pair then still
    exceeds that cache, which a cyclic sweep needs to defeat it.  Both
    sizes and whether a cap bound are in the result's ``extra``."""
    llc = read_llc_bytes()
    want_mb = 4 * llc / 2**20 if llc else _STREAM_FALLBACK_MB
    size_mb = min(want_mb, ram_bytes() / 4 / 2 / 2**20, _STREAM_CAP_MB)
    bw = _fresh_process(_STREAM_PROBE, str(size_mb), str(ctx.T))
    return ({"stream.triad_gib_s.1": m(bw["1"], "GiB/s"),
             "stream.triad_gib_s.T": m(bw["T"], "GiB/s"),
             "stream.scaling": m(bw["T"] / bw["1"], "ratio")},
            {"stream_array_mb": size_mb, "llc_bytes": llc,
             "stream_capped": size_mb < want_mb})


def probe_recursion(ctx: Context, pr: Primary, codegen_s: float) -> dict:
    """The interpreter (what ``dfs`` runs): one level of S, T and C chains
    through ``combine_blocks(out=)``, and a whole multiply against the
    generated module."""
    from repro import multiply_reference
    from repro.core.recursion import combine_blocks
    from repro.core.workspace import Workspace

    alg = ctx.get_algorithm(_NP.algorithm)
    mm, kk, nn = alg.base_case
    p, q, r = pr.shape
    bp, bq, bn = p // mm, q // kk, r // nn
    a_blocks = [pr.A[i * bp:(i + 1) * bp, j * bq:(j + 1) * bq]
                for i in range(mm) for j in range(kk)]
    b_blocks = [pr.B[i * bq:(i + 1) * bq, j * bn:(j + 1) * bn]
                for i in range(kk) for j in range(nn)]
    c_blocks = [pr.C[i * bp:(i + 1) * bp, j * bn:(j + 1) * bn]
                for i in range(mm) for j in range(nn)]
    products = [np.ones((bp, bn), dtype=pr.dtype) for _ in range(alg.rank)]
    S = np.empty((bp, bq), dtype=pr.dtype)
    Tm = np.empty((bq, bn), dtype=pr.dtype)
    item = np.dtype(pr.dtype).itemsize
    chains = (
        [(a_blocks, alg.U[:, i], S, bp * bq) for i in range(alg.rank)]
        + [(b_blocks, alg.V[:, i], Tm, bq * bn) for i in range(alg.rank)]
        + [(products, alg.W[i, :], c_blocks[i], bp * bn)
           for i in range(mm * nn)])
    moved = 0
    for _, coeffs, _, elems in chains:
        terms = int(np.count_nonzero(coeffs))
        if terms > 1 or (terms == 1 and coeffs[np.nonzero(coeffs)][0] != 1):
            # first term: read + write; each further one: two reads + write
            moved += (2 + 3 * (terms - 1)) * elems * item

    def additions():
        for blocks, coeffs, out, _ in chains:
            combine_blocks(blocks, coeffs, out=out)
    additions()
    seconds = median(reps(additions, 3))
    ws = Workspace.for_recursion([alg.base_case], p, q, r, pr.A.dtype,
                                 pr.B.dtype, algorithms=[alg])

    def interpreter():
        with ctx.blas.blas_threads(pr.threads):
            multiply_reference(pr.A, pr.B, alg, steps=1, out=pr.C,
                               workspace=ws)
    interpreter()
    return {
        "recursion.additions_ms": m(seconds * 1e3, "ms"),
        "recursion.additions_gib_s": m(moved / seconds / 2**30, "GiB/s"),
        "recursion.vs_codegen": m(
            median(reps(interpreter, 3)) / codegen_s, "ratio"),
    }


def probe_parallel(ctx: Context, pr: Primary, seq_1t_s: float) -> dict:
    """The three schedules at T threads against ``np.matmul`` at T."""
    from repro.parallel.pool import WorkerPool
    from repro.parallel.trace import TracedPool

    T = ctx.T
    plans = {name: pr.plan(spec, threads=T)
             for name, spec in _PARALLEL.items()}
    runs = {"blas": pr.blas(T)}
    runs.update((name, pr.runner(plan)) for name, plan in plans.items())
    for run in runs.values():
        run()
    times = interleaved(runs, 3)
    out = {f"parallel.{name}_vs_blas": m(
        median([b / t for b, t in zip(times["blas"], times[name])]), "ratio")
        for name in plans}
    best = min(median(times[name]) for name in plans)
    if pr.threads != 1:
        seq_1t_s = median(reps(pr.runner(pr.plan(_CC, threads=1)), 2))
    out["parallel.efficiency"] = m(seq_1t_s / (T * best), "ratio")
    out["parallel.arena_mb"] = m(
        max(pr.arena(plan).nbytes for plan in plans.values()) / 2**20, "MB")
    with TracedPool(T) as pool:
        traced = pr.runner(plans["bfs"], pool=pool)
        traced()
        pool.trace.clear()
        traced()
        trace = pool.trace
        busy = sum(trace.per_worker_busy().values())
        out["parallel.imbalance"] = m(trace.imbalance(), "ratio")
        out["parallel.worker_busy_frac"] = m(
            busy / (T * trace.makespan()), "ratio")
    with WorkerPool(T) as pool:
        def fanout():
            pool.map_wait(lambda _: None, range(T))
        fanout()
        out["pool.fanout_us"] = m(median(reps(fanout, 300)) * 1e6, "us")
    return out


def probe_batched(ctx: Context) -> dict:
    repro, T = ctx.repro, ctx.T
    rng = np.random.default_rng(ctx.seed + 1)
    dims = (_BATCH, _BATCH_DIM, _BATCH_DIM)
    A, B = rng.uniform(-1, 1, dims), rng.uniform(-1, 1, dims)
    C = np.empty(dims)

    def blas():
        with ctx.blas.blas_threads(T):
            np.matmul(A, B, out=C)

    def batched():
        repro.matmul_batched(A, B, out=C, threads=T, cache=ctx.tuned_cache)

    def loop():
        for i in range(_BATCH):
            repro.matmul(A[i], B[i], out=C[i], threads=T,
                         cache=ctx.tuned_cache)
    runs = {"blas": blas, "batched": batched, "loop": loop}
    for run in runs.values():
        run()
    times = interleaved(runs, 3)
    t = median(times["batched"])
    return {"batched.vs_blas": m(median(times["blas"]) / t, "ratio"),
            "batched.vs_loop": m(median(times["loop"]) / t, "ratio"),
            "batched.per_elem_us": m(t / _BATCH * 1e6, "us")}


def probe_guard(ctx: Context, pr: Primary) -> dict:
    """``guard=True`` against unguarded, on up to 600 warm tuned calls."""
    def call(guard):
        return lambda: ctx.repro.matmul(
            pr.A, pr.B, threads=pr.threads, out=pr.C, cache=ctx.tuned_cache,
            guard=guard)
    per_call = median(ctx.calls["call", pr.ci])
    n = max(3, min(300, int(0.5 / per_call)))
    times = interleaved({"off": call(False), "on": call(True)}, n)
    return {"guard.overhead_ratio": m(
        median(times["on"]) / median(times["off"]), "ratio")}


def probe_bench(ctx: Context, pr: Primary) -> dict:
    """The paper-style reference row of the primary case (Eq. 3)."""
    from repro.bench.metrics import effective_gflops

    def gflops(variant):
        return effective_gflops(*pr.shape, median(ctx.calls[variant, pr.ci]))
    fast = [gflops(f"fast:{spec.label}") for spec in pr.case.pinned]
    return {"bench.blas_gflops": m(gflops("blas"), "GFLOPS"),
            "bench.tuned_gflops": m(gflops("tuned"), "GFLOPS"),
            "bench.untuned_gflops": m(gflops("untuned"), "GFLOPS"),
            "bench.fast_gflops": m(statistics.geometric_mean(fast), "GFLOPS"),
            "bench.call_ms_p50": m(
                median(ctx.calls["tuned", pr.ci]) * 1e3, "ms")}


def traced_pass(ctx: Context, seconds: float) -> tuple[dict, dict]:
    """Every layer metric of ``BENCHMARK.json`` for one workload."""
    rounds = traced_rounds(ctx, seconds / 3)
    pr = Primary(ctx)
    metrics: dict[str, dict] = {}
    extra: dict = {"traced_rounds": rounds["rounds"], "probe_s": {}}

    def add(probe, *args):
        t0 = time.perf_counter()
        result = probe(*args)
        extra["probe_s"][probe.__name__] = time.perf_counter() - t0
        if isinstance(result, tuple):
            extra.update(result[1])
            result = result[0]
        metrics.update(result)

    add(probe_bench, ctx, pr)
    add(probe_dispatch, ctx, pr, rounds)
    add(probe_tuner, ctx, pr)
    add(probe_cost, ctx, pr)
    add(probe_workspace, ctx, pr)
    add(probe_gemm, ctx, pr)
    add(probe_stream, ctx)
    triad = metrics["stream.triad_gib_s.1" if pr.threads == 1
                    else "stream.triad_gib_s.T"]["value"]
    add(probe_sequential, ctx, pr, extra["leaf_total_s"], triad)
    add(probe_compile, ctx)
    codegen_s = (metrics["codegen.nongemm_ms"]["value"] * 1e-3
                 + extra["leaf_total_s"])
    add(probe_recursion, ctx, pr, codegen_s)
    add(probe_parallel, ctx, pr, extra["seq_1t_s"])
    add(probe_batched, ctx)
    add(probe_guard, ctx, pr)
    metrics["stability.max_err_over_bound"] = m(
        ctx.verifier.max_err_over_bound, "ratio")
    ctx.tracer.dump(ctx.workdir / "trace.json")
    return metrics, extra
