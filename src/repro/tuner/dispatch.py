"""The dispatch hot path: ``repro.matmul(A, B)``.

Resolution order for a ``p x q x r`` problem (the subsystem's contract),
four stages, the first that answers wins:

1. **trivial** -- below the dgemm ramp-up knee no fast algorithm can win
   (Section 3.4): plain vendor BLAS;
2. **cache hit** -- the shape was tuned before *on this machine* at this
   thread count (entries stamped with a foreign machine fingerprint are
   bypassed, not trusted): execute its plan verbatim (deterministic:
   identical calls pick identical plans);
3. **nearest neighbour** -- an adjacent shape was tuned at the same
   thread count: borrow its plan (the paper's performance regimes are
   wide plateaus);
4. **cost model** -- rank the candidate space analytically and run the
   best plan.  The tuning *policy* (:mod:`repro.tuner.policy`) decides
   whether to measure first: ``tune="auto"`` times the cost-ranked
   shortlist once and caches the winner, ``"always"`` on every call.

A plan the quarantine ledger holds is skipped at whichever stage proposes
it, and charged once per lookup however many stages do.

The hot path is allocation-managed: each dispatching thread owns **one**
:class:`repro.core.workspace.Workspace` arena that only grows -- a call
reserves its plan's footprint in it (:func:`workspace_for`), so a process
that has served N plans holds the largest one's memory, not the sum: the
paper's Section 4 memory discipline, per call as the paper states it --
and worker pools persist across calls, so a warm ``matmul(A, B, out=C)``
performs zero large allocations.  A bump-pointer arena cannot be shared
mid-call, hence one per thread; it dies with its thread.  Measurement
sweeps and guard fallbacks run in throwaways (:func:`build_workspace`): a
losing candidate never grows a serving arena.

**The serving tail.**  What a call does around its gemms is written once,
on one path: :func:`_serve` is the only tail ``matmul`` and
``matmul_batched`` have -- plain, telemetry-on, guarded and batched
requests all cross it -- and the only caller of ``policy.select`` (under
the ``dispatch.lookup`` span).  Its first question after resolving is
whether anything but the vendor call is left to do: a plain-BLAS plan on
an unguarded request with telemetry off has no arena to reserve, no span
to time and no record to write, so it runs :func:`execute_plan` and
returns -- below the dgemm knee a request costs one ``np.matmul`` plus the
lookup's dictionary hits (Section 3.4).  Every other request takes the
thread's arena from ``workspace_for``; executes under the
``dispatch.execute`` span (``dispatch.batch`` for a batch, whose products
run that one plan one after another in that one arena, or as one
:func:`execute_plan` over the stacks when the plan is plain BLAS) -- directly,
or through :func:`repro.guard.chain.run_guarded`, which only walks the
fallback ladder and says which plan served; and hands the outcome to
:func:`_report`.  So for every request a warm arena that spilled to the
heap is counted (``workspace.overflows``) and warned about once per
(plan, shape, dtype) with or without telemetry, and one record of one
schema (``seconds`` is whole-call wall time) lands in the telemetry
ring whenever telemetry is on.
"""

from __future__ import annotations

import functools
import logging
import threading
import weakref

import numpy as np

from repro.algorithms import get_algorithm
from repro.bench.metrics import effective_gflops
from repro.codegen import cbackend
from repro.core.workspace import Workspace, check_out
from repro.guard import chain as _guard_chain
from repro.guard import faults
from repro.obs import telemetry
from repro.parallel import blas
from repro.parallel.pool import WorkerPool, resolve_threads
from repro.parallel.schedules import multiply_parallel, parallel_footprint
from repro.tuner.cache import PlanCache
from repro.tuner.policy import TuningPolicy, get_policy
from repro.tuner.space import Plan, enumerate_plans, trivial_dim
from repro.util.validation import check_matmul_dims, require_2d

_log = logging.getLogger(__name__)

_default_cache: PlanCache | None = None
#: each dispatching thread's arena, freed with the thread object
_arenas: "weakref.WeakKeyDictionary[threading.Thread, Workspace]" = (
    weakref.WeakKeyDictionary())
#: (plan, p, q, r, dtype) combinations already warned about overflowing --
#: the warning fires once per offender, the telemetry counter every time.
#: A duplicate warning from two racing threads is benign, so membership is
#: checked without the dispatch lock.
_overflow_warned: set[tuple] = set()
_pools: dict[int, WorkerPool] = {}
#: guards _arenas/_pools/_default_cache mutation -- concurrent dispatchers
#: are a supported pattern (an arena per thread), so the bookkeeping around
#: them must not race
_dispatch_lock = threading.Lock()


def _shared_cache() -> PlanCache:
    global _default_cache
    if _default_cache is None:
        # double-checked: without the lock two racing first dispatches
        # would build two caches and split the tuner's memory of plans
        with _dispatch_lock:
            if _default_cache is None:
                _default_cache = PlanCache()
    return _default_cache


def reset_shared_cache() -> None:
    """Forget the process-wide cache object (tests; after env changes)."""
    global _default_cache
    with _dispatch_lock:
        _default_cache = None


def reset_workspaces() -> None:
    """Give every thread's arena back (the next call on a thread builds a
    fresh one) and forget the footprint memo and who was warned."""
    with _dispatch_lock:
        _arenas.clear()
        _overflow_warned.clear()
    _reservation.cache_clear()
    cbackend._fallback_warned.clear()


def shutdown_shared_pools() -> None:
    """Stop the persistent dispatch worker pools (tests; interpreter exit
    joins them automatically otherwise)."""
    with _dispatch_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown()


def _shared_pool(workers: int) -> WorkerPool:
    """A persistent pool per worker count: thread startup is not something
    a steady-state dispatch call should pay for.

    The pool is constructed *outside* ``_dispatch_lock`` -- spawning OS
    threads under the lock would stall every concurrent dispatcher for the
    duration of pool startup -- with a double-check on re-entry; the loser
    of a construction race is shut down and discarded.  A pool found
    *broken* (dead executor, latched by supervision) is replaced the same
    way a missing one is built.
    """
    with _dispatch_lock:
        pool = _pools.get(workers)
    if pool is not None and not pool.broken:
        return pool
    fresh = WorkerPool(workers)
    with _dispatch_lock:
        pool = _pools.get(workers)
        if pool is None or pool.broken:
            stale, _pools[workers] = pool, fresh
            pool, fresh = fresh, stale
    if fresh is not None:
        fresh.shutdown(wait=False)
    return pool


def rebuild_shared_pool(workers: int) -> WorkerPool:
    """Tear down the shared pool for ``workers`` and build a fresh one.

    The guard chain's recovery move after a hang/death implicating the
    pool: the old executor is abandoned without joining (a wedged worker
    must not hang recovery), and the replacement is built through
    :func:`_shared_pool` so concurrent dispatchers converge on one pool.
    """
    with _dispatch_lock:
        old = _pools.pop(workers, None)
    if old is not None:
        old.shutdown(wait=False)
    telemetry.incr("guard.pool_rebuilds")
    return _shared_pool(workers)


def plan_footprint(plan: Plan, p: int, q: int, r: int,
                   dtype_a, dtype_b) -> int:
    """Arena bytes one execution of ``plan`` draws (0 for plain BLAS).

    The one place a plan's scheme picks its footprint formula: every
    reservation and every measurement arena is sized here, by the formula
    of the executor :func:`execute_plan` will run -- the one the rule
    (:func:`repro.codegen.cbackend.chains_fused`) picks for these dtypes.
    An executor that the operands send down another path reserves its own.
    """
    if plan.is_dgemm:
        return 0
    alg = get_algorithm(plan.algorithm)
    if plan.scheme == "sequential":
        return cbackend.sequential_footprint(alg, plan.steps, p, q, r,
                                             dtype_a, dtype_b)
    return parallel_footprint(alg, plan.steps, plan.scheme, p, q, r,
                              dtype_a, dtype_b, threads=plan.threads)


def build_workspace(plan: Plan, p: int, q: int, r: int,
                    dtype_a, dtype_b) -> Workspace | None:
    """A fresh arena of exactly :func:`plan_footprint` bytes that no thread
    owns (``None`` for plain-BLAS plans).  Measurement sweeps and guard
    fallbacks run in one, so a losing 374 MB tree candidate is
    garbage-collected instead of growing the serving arena."""
    if plan.is_dgemm:
        return None
    return Workspace(plan_footprint(plan, p, q, r, dtype_a, dtype_b))


@functools.lru_cache
def _plain_blas(threads: int) -> Plan:
    """The trivial stage's answer, built once per thread count."""
    return Plan(threads=threads)


@functools.lru_cache
def _dtype_name(dtype: np.dtype) -> str:
    """``dtype.name``, remembered: NumPy builds the string on every
    access, which costs a warm call more than its plan lookup."""
    return dtype.name


@functools.lru_cache
def _reservation(plan: Plan, p: int, q: int, r: int, dtype_a, dtype_b) -> int:
    """:func:`plan_footprint`, remembered: the formulas walk the levels
    and the chain layouts, which a warm call should not pay for."""
    return plan_footprint(plan, p, q, r, dtype_a, dtype_b)


def workspace_for(plan: Plan, p: int, q: int, r: int,
                  dtype_a, dtype_b) -> Workspace | None:
    """The calling thread's arena, reserved to :func:`plan_footprint` bytes
    and rewound -- built on the thread's first call, grown when a plan
    needs more than any before it, never shrunk.  ``None`` for plain-BLAS
    plans, which need no workspace.  Per thread, because an arena rewound
    at every call cannot be shared by two in-flight multiplications.
    """
    if plan.is_dgemm:
        return None
    nbytes = _reservation(plan, p, q, r, dtype_a, dtype_b)
    thread = threading.current_thread()
    ws = _arenas.get(thread)
    if ws is None:
        ws = Workspace(nbytes)
        with _dispatch_lock:
            _arenas[thread] = ws
    ws.reserve(nbytes)
    ws.uses += 1
    return ws


def evict_workspace(plan: Plan, p: int, q: int, r: int,
                    dtype_a, dtype_b) -> bool:
    """Drop the calling thread's arena -- the guard chain's hygiene after a
    failed execution of ``plan``, whose half-written views a zombie worker
    might still touch (they keep the old buffer alive; the thread's next
    call builds a new one).  Plain BLAS drew from none."""
    if plan.is_dgemm:
        return False
    with _dispatch_lock:
        return _arenas.pop(threading.current_thread(), None) is not None


def execute_plan(
    plan: Plan,
    A: np.ndarray,
    B: np.ndarray,
    pool: WorkerPool | None = None,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Run one multiplication exactly as ``plan`` prescribes.

    ``out`` receives the product; ``workspace`` (see
    :func:`workspace_for`) supplies every temporary.  A sequential fast
    plan is :func:`repro.codegen.cbackend.multiply_sequential`: the C step
    at the product's precision whenever
    :func:`repro.codegen.cbackend.chains_fused` holds for the dtypes; the
    interpreter (:func:`repro.core.recursion.multiply`) serves every
    other dtype, a host without a compiler, and a compile that fails at
    serving time -- then in the same arena, re-reserved for the
    interpreter's layout (one S/T/M_r triple per level, arena views;
    ``out`` is written directly).  DFS is the same product under a
    ``threads``-wide BLAS.
    Parallel plans carry their sub-group P' (``plan.subgroup``) through to
    the schedule verbatim -- the tuner's swept value is what executes, not
    a derived default -- and leave the choice of executor (the compiled
    step, or the interpreter) to the schedule, which makes it from the
    operands.
    """
    if faults.active and faults.should_fire("plan.raise"):
        raise faults.InjectedFault(
            f"injected: plan.raise executing [{plan.describe()}]")
    if plan.is_dgemm:
        with blas.blas_threads(plan.threads):
            if A.ndim == 3 and out is not None and plan.threads > 1:
                return _stacked_dgemm(A, B, out, plan.threads)
            return np.matmul(A, B, out=out)
    alg = get_algorithm(plan.algorithm)
    if plan.scheme == "sequential":
        with blas.blas_threads(plan.threads):
            return cbackend.multiply_sequential(
                cbackend.step_chains(alg, plan.scheme, A, B), A, B, alg,
                plan.steps, out, workspace)
    if pool is None:
        pool = _shared_pool(plan.threads)
    return multiply_parallel(
        A, B, alg, steps=plan.steps, scheme=plan.scheme,
        pool=pool, threads=plan.threads, subgroup=plan.subgroup,
        out=out, workspace=workspace,
    )


def _stacked_dgemm(A: np.ndarray, B: np.ndarray, out: np.ndarray,
                   threads: int) -> np.ndarray:
    """A stacked batch of dgemms at ``threads``-wide BLAS (``threads > 1``):
    its first ``threads * (count // threads)`` products -- whole waves --
    in one vendor batched call (:func:`repro.parallel.blas.gemm_batch`),
    each product a one-thread gemm on one of the vendor's threads, the
    paper's BFS; the ``count mod threads`` left over at ``threads``-wide
    gemm, HYBRID's rule for leaves that do not fill a wave.  A batch the
    vendor call does not take (fewer products than threads, mixed or
    non-float dtypes, a layout it cannot address, a product under its
    guard) is ``np.matmul`` over the stacks, and so is one whose ``out``
    may share memory with ``A`` or ``B``: the vendor call would read
    products it has already written, where ``np.matmul`` buffers the
    overlap.  The products sent to the vendor are tallied as ``vendor``
    on the request's span."""
    wave = len(A) - len(A) % threads
    if np.may_share_memory(out, A) or np.may_share_memory(out, B):
        wave = 0
    done = blas.gemm_batch(A[:wave], B[:wave], out[:wave]) if wave else 0
    telemetry.tally("vendor", done)
    if done < len(A):
        np.matmul(A[done:], B[done:], out=out[done:])
    return out


def get_plan(
    p: int,
    q: int,
    r: int,
    dtype: str = "float64",
    threads: int | None = None,
    cache: PlanCache | None = None,
) -> tuple[Plan, str]:
    """Resolve the plan for a shape; returns ``(plan, source)``.

    ``source`` names the stage that answered (see the module docstring):
    ``"trivial"``, ``"cache"``, ``"nearest"`` or ``"model"`` -- callers
    use it to decide whether tuning is worth the trouble: ``"model"``
    plans are unmeasured guesses.  Cache and nearest lookups only ever
    return fingerprint-fresh entries at this thread count; a cache full
    of another machine's (or another thread count's) plans resolves to
    ``"model"``.

    ``threads`` defaults to every available core, the same default
    ``tune``/``matmul`` use, so a tune-then-dispatch pair agrees on the
    cache key.  The candidate space is dtype-specific (float32 recurses
    deeper within its stability budget, see :mod:`repro.tuner.space`).
    """
    threads = resolve_threads(threads)
    cache = cache if cache is not None else _shared_cache()
    if min(p, q, r) < trivial_dim(dtype):
        return _plain_blas(threads), "trivial"
    skipped = []

    def admits(plan: Plan) -> bool:
        # the quarantine ledger reaches every stage, and one lookup
        # charges a plan's skip once however many stages propose it
        # (bounded -- the ledger's backoff probe lets it through
        # periodically to check whether the world healed)
        if plan in skipped:
            return False
        if cache.plan_quarantined(p, q, r, dtype, threads, plan):
            skipped.append(plan)
            return False
        return True

    plan = cache.get(p, q, r, dtype, threads)
    if plan is not None and admits(plan):
        return plan, "cache"
    plan = cache.nearest(p, q, r, dtype, threads)
    if plan is not None and admits(plan):
        return plan, "nearest"
    plans = enumerate_plans(p, q, r, threads=threads, dtype=dtype)
    return next((cand for cand in plans if admits(cand)), plans[0]), "model"


def _warn_overflow(plan: Plan, p: int, q: int, r: int, dtype: str,
                   count: int) -> None:
    """Surface a warm-path arena heap overflow (always counted, warned
    once per (plan, shape, dtype)).

    ``Workspace.overflow_allocations`` degrades gracefully by design, but
    on the *serving* path an overflow means the arena undersizes its plan
    and every warm call is silently paying allocator traffic -- exactly
    the regression the zero-allocation steady state exists to prevent, so
    it must not stay invisible.
    """
    telemetry.incr("workspace.overflows", count)
    key = (plan, p, q, r, dtype)
    if key not in _overflow_warned:
        _overflow_warned.add(key)
        _log.warning(
            "workspace arena overflowed to the heap %d time(s) serving "
            "%dx%dx%d %s with plan [%s]; warm calls for this shape are "
            "allocating instead of reusing the arena",
            count, p, q, r, dtype, plan.describe(),
        )


def _report(plan: Plan, served: Plan, source: str, p: int, q: int, r: int,
            dtype: str, threads: int, workspace: Workspace | None,
            spilled: int, t_call: int, batch: int | None,
            tallies: dict | None) -> None:
    """What every request reports once it has executed -- the one
    overflow warning and the one record (:func:`_record`).

    ``workspace`` is the thread's arena ``plan`` drew temporaries from
    (``None`` for plain BLAS) and ``spilled`` the heap overflows it
    counted during this request.  The record describes the plan that
    ``served``: under guard that may be a fallback, reported as source
    ``"guard"`` with no arena.  ``tallies`` are what the work reported
    on the request's span (:func:`repro.obs.telemetry.tally`).
    """
    if spilled > 0:
        _warn_overflow(plan, p, q, r, dtype, spilled)
    if not telemetry.enabled():
        return
    if served is not plan:
        source, workspace = "guard", None
    telemetry.defer(_record, served, source, p, q, r, dtype, threads,
                    None if workspace is None else workspace.stats(),
                    telemetry.clock_ns() - t_call, batch, tallies)


def _record(plan: Plan, source: str, p: int, q: int, r: int, dtype: str,
            threads: int, arena: dict | None, ns: int, batch: int | None,
            tallies: dict | None = None):
    """The one record builder: a request's dispatch record, counters and
    gauges (:func:`repro.obs.telemetry.defer`).  ``arena_bytes`` is the
    call's reservation, not the capacity earlier plans left behind, and
    ``arena_high_water`` what it carved.  A batched request adds
    ``batch``, its element count; ``gflops`` is then per element.  A
    request any of whose products ran in vendor batched calls adds
    ``vendor``, their number."""
    seconds = ns * 1e-9
    gflops = (effective_gflops(p, q, r, seconds / (batch or 1))
              if seconds > 0 else 0.0)
    record = {
        "shape": [p, q, r],
        "dtype": dtype,
        "threads": threads,
        "source": source,
        "plan": plan.describe(),
        "scheme": plan.scheme,
        "seconds": seconds,
        "gflops": gflops,
    }
    gauges = {"dispatch.last_gflops": gflops,
              "dispatch.last_seconds": seconds}
    if batch is not None:
        record["batch"] = batch
    if tallies and "vendor" in tallies:
        record["vendor"] = tallies["vendor"]
    if arena is not None:
        record["arena_bytes"] = arena["nbytes"]
        record["arena_high_water"] = arena["high_water"]
        record["arena_overflows"] = arena["overflow_allocations"]
        gauges["workspace.arena_bytes"] = arena["nbytes"]
        gauges["workspace.high_water"] = arena["high_water"]
        gauges["workspace.max_mark_depth"] = arena["max_mark_depth"]
    counters = {"dispatch.calls": 1,
                ("dispatch.source", (("source", source),)): 1}
    return record, counters, gauges


def _execute(plan: Plan, a_ops, b_ops, dest, pool: WorkerPool | None,
             workspace: Workspace | None, batch: int | None):
    """Run ``plan`` for every product of a request into ``dest``.

    A single product, and a stacked batch that ``plan`` serves with plain
    BLAS, are one :func:`execute_plan` call -- the latter over the 3-D
    stacks, its whole waves of ``threads`` products in one vendor batched
    call (:func:`_stacked_dgemm`); any other batch runs element after
    element in ``workspace``.
    """
    if batch is None:
        return execute_plan(plan, a_ops[0], b_ops[0], pool=pool, out=dest,
                            workspace=workspace)
    if plan.is_dgemm and isinstance(a_ops, np.ndarray):
        return execute_plan(plan, a_ops, b_ops, out=dest)
    for a, b, c in zip(a_ops, b_ops, dest):
        execute_plan(plan, a, b, pool=pool, out=c, workspace=workspace)
    return dest


def _serve(policy: TuningPolicy, cfg, a_ops, b_ops, p: int, q: int,
           r: int, dtype: str, threads: int, cache: PlanCache,
           pool: WorkerPool | None, out, fresh, batch: int | None = None):
    """The serving tail of every request (see the module docstring):
    resolve, take the thread's arena, execute, report.

    ``a_ops`` / ``b_ops`` are the request's operands, one per product: a
    :func:`matmul` call is a 1-tuple with ``batch=None``, a
    :func:`repro.tuner.batched.matmul_batched` call ``batch`` of them -- a
    list of 2-D arrays, or a 3-D stack whose elements index and iterate
    alike -- whose destinations ``out`` holds (``fresh()`` makes another
    of the same form).  Every product runs the one resolved plan.
    """
    t_call = telemetry.clock_ns()
    with telemetry.span("dispatch.lookup"):
        plan, source = policy.select(p, q, r, dtype, threads, cache)
    if plan.is_dgemm and cfg is None and not telemetry.enabled():
        # plain BLAS, unguarded, untraced: no arena, span or record
        return _execute(plan, a_ops, b_ops, out, pool, None, batch)
    dtype_a, dtype_b = a_ops[0].dtype, b_ops[0].dtype
    workspace = workspace_for(plan, p, q, r, dtype_a, dtype_b)
    spilled_before = (workspace.overflow_allocations
                      if workspace is not None else 0)

    def run(pl: Plan, dest):
        # the resolved plan runs in the thread's arena; any other plan is
        # a guard fallback and gets a throwaway of its own
        ws = (workspace if pl is plan
              else build_workspace(pl, p, q, r, dtype_a, dtype_b))
        return _execute(pl, a_ops, b_ops, dest, pool, ws, batch)

    span = "dispatch.execute" if batch is None else "dispatch.batch"
    with telemetry.span(span, scheme=plan.scheme) as sp:
        if cfg is None:
            C, served = run(plan, out), plan
        else:
            C, served = _guard_chain.run_guarded(
                cfg, plan, run, (a_ops, b_ops), out, fresh, cache,
                (p, q, r, dtype, threads))
    spilled = (workspace.overflow_allocations - spilled_before
               if workspace is not None else 0)
    _report(plan, served, source, p, q, r, dtype, threads, workspace,
            spilled, t_call, batch, sp.tallies)
    return C


def matmul(
    A: np.ndarray,
    B: np.ndarray,
    threads: int | None = None,
    cache: PlanCache | None = None,
    tune: str | TuningPolicy = "never",
    pool: WorkerPool | None = None,
    out: np.ndarray | None = None,
    guard: bool | float | str | _guard_chain.GuardConfig | None = None,
) -> np.ndarray:
    """Multiply ``A @ B``, choosing the algorithm automatically.

    The public self-optimizing entry point: consults the plan cache (see
    :mod:`repro.tuner.cache`), falls back to the analytical cost model,
    and measures according to ``tune`` -- a policy name (``"never"``,
    ``"auto"``, ``"always"``) or a
    :class:`~repro.tuner.policy.TuningPolicy` instance.  ``"auto"`` times
    the cost-ranked shortlist the first time a shape resolves to the cost
    model and caches the winner; see :mod:`repro.tuner.policy`.

    ``threads`` defaults to every available core.  ``out`` receives the
    product (same shape/result-dtype, not overlapping ``A``/``B``); with
    it, a repeat call for a cached shape is allocation-free -- plan lookup,
    arena, pool and destination are all reused.

    ``guard`` opts into the fault-tolerant execution ladder
    (:mod:`repro.guard.chain`): ``True`` / ``"on"`` for the default
    config, a number for a watchdog deadline in seconds, a
    :class:`~repro.guard.chain.GuardConfig` for full control, ``False`` /
    ``"off"`` to force unguarded.  The default ``None`` defers to the
    ``REPRO_GUARD`` environment variable (unset means unguarded).  A
    guarded call degrades tuned plan -> cost-model plan -> classical
    ``np.matmul`` on failure and always returns a correct product.
    """
    A = require_2d(A, "A")
    B = require_2d(B, "B")
    check_matmul_dims(A, B)
    if out is not None:
        out = check_out(out, A, B)
    policy = get_policy(tune)
    p, q = A.shape
    r = B.shape[1]
    dtype = _dtype_name(np.result_type(A, B))
    threads = resolve_threads(threads)
    cache = cache if cache is not None else _shared_cache()
    return _serve(policy, _guard_chain.resolve_guard(guard), (A,), (B,),
                  p, q, r, dtype, threads, cache, pool, out,
                  lambda: np.empty((p, r), dtype=dtype))
