"""Batched dispatch: one plan, one arena, one pool for a whole batch.

``repro.matmul_batched`` serves the workload the per-call hot path cannot
amortize: many same-shape products, each small enough that plan
resolution, arena lookup and thread fan-out are a visible share of the
call (the Section 3.4 regime below the dgemm ramp-up knee -- exactly
where a serving workload of repeated small products lives).  The batched
entry point resolves **one** plan, borrows **one** persistent worker pool,
and runs every element through the ordinary
:func:`repro.tuner.dispatch.execute_plan` in the arena of the thread that
executes it (the caller's for a ``within`` batch, each worker's own under
``elementwise``), rewound between elements -- so a warm batched call
touches the heap zero times end to end, not just per element.

The batch also opens a new tunable axis (:data:`repro.tuner.space.BATCH_MODES`):

- ``within`` -- elements run serially, each using the per-element plan's
  own (possibly parallel) schedule: the existing behaviour, amortized.
- ``elementwise`` -- elements fan out across the worker pool, each
  running the *sequential* path with BLAS pinned to a single thread in
  its worker thread's arena (already private to it: nothing to check out).
  Below the ramp-up knee ``threads`` independent single-threaded gemms
  beat one ``threads``-way gemm per element, which is the batching win
  the paper's overhead analysis predicts.

The mode is cost-ranked by :func:`repro.core.cost.batch_cost`, measurable
by :func:`repro.tuner.measure.tune_batch` (``tune="auto"``/``"always"``),
and remembered in the plan cache under a ``batch``-suffixed key
(:func:`repro.tuner.cache.batched_key`) -- per-call entries are untouched.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.workspace import check_out
from repro.guard import chain
from repro.obs import telemetry
from repro.parallel import blas
from repro.parallel.pool import WorkerPool, resolve_threads
from repro.tuner import dispatch
from repro.tuner.cache import PlanCache
from repro.tuner.policy import TuningPolicy, get_policy
from repro.tuner.space import (
    BATCH_MODES,
    BatchPlan,
    Plan,
    batch_plan_cost,
)
from repro.util.validation import check_matmul_dims, require_2d

# ---------------------------------------------------------------------------
# operand normalization: stacked 3-D arrays or lists of same-shape 2-D
# ---------------------------------------------------------------------------
class _Batch(NamedTuple):
    """A batch's operands, validated once per call and passed down."""

    a_list: list
    b_list: list
    p: int
    q: int
    r: int
    stacked: bool
    dtype: np.dtype  # of the products


def _normalize_operands(A, B) -> _Batch:
    """Validate batched operands.

    Two accepted forms: stacked 3-D arrays ``(b, p, q) @ (b, q, r)``, or
    sequences of same-shape 2-D arrays (the list convenience path).  One
    shape per batch is the amortization contract -- ragged batches are
    rejected, not silently looped.
    """
    if isinstance(A, np.ndarray) or isinstance(B, np.ndarray):
        A = np.asarray(A)
        B = np.asarray(B)
        if A.ndim != 3 or B.ndim != 3:
            raise ValueError(
                f"stacked operands must be 3-D (batch, rows, cols); got "
                f"A.ndim={A.ndim}, B.ndim={B.ndim} -- pass lists of 2-D "
                f"arrays for the list path"
            )
        if A.shape[0] != B.shape[0]:
            raise ValueError(
                f"batch sizes differ: A has {A.shape[0]}, B has {B.shape[0]}"
            )
        if A.shape[2] != B.shape[1]:
            raise ValueError(
                f"inner dimensions do not match: A is {A.shape[1]}x{A.shape[2]} "
                f"per element, B is {B.shape[1]}x{B.shape[2]}"
            )
        return _Batch(list(A), list(B), A.shape[1], A.shape[2], B.shape[2],
                      True, np.result_type(A, B))
    a_list = [require_2d(np.asarray(a), f"A[{i}]") for i, a in enumerate(A)]
    b_list = [require_2d(np.asarray(b), f"B[{i}]") for i, b in enumerate(B)]
    if len(a_list) != len(b_list):
        raise ValueError(
            f"batch sizes differ: A has {len(a_list)}, B has {len(b_list)}"
        )
    if not a_list:
        raise ValueError("empty batch: the list path needs >= 1 element")
    for i, (a, b) in enumerate(zip(a_list, b_list)):
        check_matmul_dims(a, b)
        if a.shape != a_list[0].shape or b.shape != b_list[0].shape:
            raise ValueError(
                f"ragged batch: element {i} is "
                f"{a.shape}@{b.shape}, element 0 is "
                f"{a_list[0].shape}@{b_list[0].shape} -- one shape per "
                f"batch is the amortization contract (split ragged work "
                f"into per-shape batches)"
            )
        if a.dtype != a_list[0].dtype or b.dtype != b_list[0].dtype:
            raise ValueError(
                f"mixed dtypes in batch: element {i} is "
                f"{a.dtype.name}@{b.dtype.name}, element 0 is "
                f"{a_list[0].dtype.name}@{b_list[0].dtype.name}"
            )
    p, q = a_list[0].shape
    return _Batch(a_list, b_list, p, q, b_list[0].shape[1], False,
                  np.result_type(a_list[0], b_list[0]))


def _batch_result(ops: _Batch, out=None):
    """The batch's destination in the operands' form -- a ``(b, p, r)``
    stack for stacked operands, a list of ``b`` products otherwise: the
    caller's ``out=`` once validated, else a fresh one."""
    batch = len(ops.a_list)
    if out is None:
        if ops.stacked:
            return np.empty((batch, ops.p, ops.r), dtype=ops.dtype)
        return [np.empty((ops.p, ops.r), dtype=ops.dtype)
                for _ in range(batch)]
    if ops.stacked:
        if not isinstance(out, np.ndarray) or out.ndim != 3:
            raise ValueError("out must be a 3-D ndarray for stacked operands")
        if out.shape != (batch, ops.p, ops.r):
            raise ValueError(
                f"out has shape {out.shape}, expected "
                f"{(batch, ops.p, ops.r)}"
            )
        if out.dtype != ops.dtype:
            raise ValueError(
                f"out has dtype {out.dtype}, expected {ops.dtype}")
        if not out.flags.writeable:
            raise ValueError("out must be writeable")
        for x in ops.a_list + ops.b_list:
            if np.may_share_memory(out, x):
                raise ValueError("out must not overlap A or B")
        return out
    if not isinstance(out, (list, tuple)) or len(out) != batch:
        raise ValueError(
            f"out must be a list of {batch} 2-D arrays for list operands"
        )
    for c, a, b in zip(out, ops.a_list, ops.b_list):
        check_out(c, a, b)
    return out


# ---------------------------------------------------------------------------
# resolution: one decision for the whole batch
# ---------------------------------------------------------------------------
def _sequential_element_plan(p: int, q: int, r: int, dtype: str,
                             cache: PlanCache) -> Plan:
    """The per-element plan of the elementwise head: the 1-thread
    resolution for this shape, coerced onto the sequential path (an entry
    cached under the 1-thread key can still name a parallel scheme, which
    one fanned-out element cannot run)."""
    plan, _ = dispatch.get_plan(p, q, r, dtype, threads=1, cache=cache)
    if plan.scheme != "sequential" or plan.threads != 1:
        plan = dataclasses.replace(plan, scheme="sequential", threads=1,
                                   subgroup=None)
    return plan


def get_batch_plan(
    p: int,
    q: int,
    r: int,
    batch: int,
    dtype: str = "float64",
    threads: int | None = None,
    cache: PlanCache | None = None,
    batch_mode: str | None = None,
) -> tuple[BatchPlan, str]:
    """Resolve the plan + batch mode for a whole batch; ``(bplan, source)``.

    ``source`` is ``"cache"`` (a batched entry measured before, via
    :meth:`PlanCache.get_batched`, whose plan the quarantine ledger does
    not hold), ``"model"`` (the within/elementwise
    heads ranked by :func:`repro.core.cost.batch_cost` -- the per-element
    plans still come from the ordinary resolution chain, so per-call
    tuning is reused), or ``"forced"`` (``batch_mode`` pinned by the
    caller).  Unlike per-call dispatch there is no trivial-shape bypass:
    sub-knee shapes are where the batch axis matters most (fanning
    single-threaded gemms across the pool is the sub-knee serving win).
    """
    threads = resolve_threads(threads)
    if batch < 1:
        raise ValueError("batch must be >= 1")
    cache = cache if cache is not None else dispatch._shared_cache()
    if batch_mode is not None:
        if batch_mode not in BATCH_MODES:
            raise ValueError(
                f"batch_mode must be one of {BATCH_MODES}, got {batch_mode!r}"
            )
        if batch_mode == "elementwise" and threads > 1:
            plan = _sequential_element_plan(p, q, r, dtype, cache)
            return BatchPlan(plan=plan, mode="elementwise",
                             workers=threads), "forced"
        plan, _ = dispatch.get_plan(p, q, r, dtype, threads, cache)
        return BatchPlan(plan=plan, mode="within",
                         workers=plan.threads), "forced"
    hit = cache.get_batched(p, q, r, dtype, threads, batch)
    if hit is not None and not cache.plan_quarantined(
            p, q, r, dtype, threads, hit.plan, batch=batch):
        if hit.mode == "elementwise" and hit.workers != threads:
            hit = BatchPlan(plan=hit.plan, mode="elementwise",
                            workers=threads)
        return hit, "cache"
    plan, _ = dispatch.get_plan(p, q, r, dtype, threads, cache)
    candidates = [BatchPlan(plan=plan, mode="within", workers=plan.threads)]
    if threads > 1:
        elem = _sequential_element_plan(p, q, r, dtype, cache)
        candidates.append(BatchPlan(plan=elem, mode="elementwise",
                                    workers=threads))
    best = min(candidates,
               key=lambda bp: (batch_plan_cost(bp, p, q, r, batch, dtype),
                               bp.describe()))
    return best, "model"


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
def _within_arena(bplan: BatchPlan, ops: _Batch, warm: bool):
    """The arena a ``within`` batch draws every element's temporaries
    from: the calling thread's (``warm``, the serving path) or a throwaway
    no measured candidate can grow.  ``None`` for plain BLAS and for
    ``elementwise``, whose elements run in their workers' arenas, timed
    or served -- one sequential element's footprint each."""
    if bplan.mode == "elementwise":
        return None
    arena = dispatch.workspace_for if warm else dispatch.build_workspace
    return arena(bplan.plan, ops.p, ops.q, ops.r,
                 ops.a_list[0].dtype, ops.b_list[0].dtype)


def _run_batch(bplan: BatchPlan, ops: _Batch, result, workspace,
               pool: WorkerPool | None) -> tuple[tuple, int]:
    """Every element of ``ops`` into ``result``, as ``bplan`` prescribes;
    returns the arenas the elements drew from and how many heap overflows
    they counted on the way (what :func:`dispatch._report` is handed)."""
    run = _run_elementwise if bplan.mode == "elementwise" else _run_within
    return run(bplan, ops, list(result), workspace, pool)


def execute_batch_plan(
    bplan: BatchPlan,
    A,
    B,
    out=None,
    pool: WorkerPool | None = None,
    warm: bool = True,
) -> np.ndarray | list:
    """Run a whole batch exactly as ``bplan`` prescribes.

    Operands as in :func:`matmul_batched`; ``warm`` as in
    :func:`_within_arena` (:func:`repro.tuner.measure.tune_batch` passes
    ``False``).
    """
    ops = _normalize_operands(A, B)
    result = _batch_result(ops, out)
    if ops.a_list:
        _run_batch(bplan, ops, result, _within_arena(bplan, ops, warm), pool)
    return result


def _run_within(bplan: BatchPlan, ops: _Batch, c_list, workspace,
                pool: WorkerPool | None) -> tuple[tuple, int]:
    """Elements serially, each under the plan's own schedule: one arena
    (the executors rewind it at call start) and one pool for the batch."""
    plan = bplan.plan
    if pool is None and not plan.is_dgemm and plan.scheme != "sequential":
        pool = dispatch._shared_pool(plan.threads)
    spilled_before = (workspace.overflow_allocations
                      if workspace is not None else 0)
    for a, b, c in zip(ops.a_list, ops.b_list, c_list):
        dispatch.execute_plan(plan, a, b, pool=pool, out=c,
                              workspace=workspace)
    if workspace is None:
        return (), 0
    return (workspace,), workspace.overflow_allocations - spilled_before


def _run_elementwise(bplan: BatchPlan, ops: _Batch, c_list, _workspace,
                     pool: WorkerPool | None) -> tuple[tuple, int]:
    """Elements fanned across the pool, each sequential in the arena of
    the worker thread it runs on, BLAS pinned to one thread for the whole
    fan-out (the inner per-element BLAS contexts are then nested no-ops)."""
    plan = bplan.plan
    a_list, b_list = ops.a_list, ops.b_list
    if pool is None:
        pool = dispatch._shared_pool(bplan.workers)

    def element(i: int):
        ws = dispatch.workspace_for(plan, ops.p, ops.q, ops.r,
                                    a_list[i].dtype, b_list[i].dtype)
        spilled_before = ws.overflow_allocations if ws is not None else 0
        dispatch.execute_plan(plan, a_list[i], b_list[i], out=c_list[i],
                              workspace=ws)
        return ws, (ws.overflow_allocations - spilled_before
                    if ws is not None else 0)

    with blas.blas_threads(1):
        drew = pool.map_wait(element, range(len(a_list)))
    arenas = {id(ws): ws for ws, _ in drew if ws is not None}
    return tuple(arenas.values()), sum(spilled for _, spilled in drew)


# ---------------------------------------------------------------------------
# the public batched entry point
# ---------------------------------------------------------------------------
def matmul_batched(
    A: np.ndarray | Sequence[np.ndarray],
    B: np.ndarray | Sequence[np.ndarray],
    out: np.ndarray | Sequence[np.ndarray] | None = None,
    threads: int | None = None,
    cache: PlanCache | None = None,
    tune: str | TuningPolicy = "never",
    batch_mode: str | None = None,
    pool: WorkerPool | None = None,
    guard: bool | float | str | chain.GuardConfig | None = None,
) -> np.ndarray | list[np.ndarray]:
    """Multiply a batch of same-shape products with one amortized decision.

    ``A`` and ``B`` are stacked 3-D arrays (``(b, p, q) @ (b, q, r)``,
    returning ``(b, p, r)``) or lists of same-shape 2-D arrays (returning
    a list).  ``out=`` mirrors the input form (a 3-D stack or a list of
    2-D destinations); with it a repeat call for a resolved shape is
    allocation-free for the *whole batch* -- one plan lookup, one arena
    per executing thread, one persistent worker pool.

    ``batch_mode`` pins the batch-parallelism axis (``"within"`` /
    ``"elementwise"``); by default the mode is cost-ranked by
    :func:`repro.core.cost.batch_cost` or served from a tuned batched
    cache entry.  ``tune`` takes the names :func:`repro.tuner.matmul`
    takes and sweeps the batch axis with measurements: ``"auto"`` tunes
    once when the decision is model-ranked (then the winner is cached
    under the batched key), ``"always"`` re-measures every call,
    ``"never"`` (default) trusts cache + model.

    ``guard`` opts the whole batch into fault-tolerant execution (same
    spellings as :func:`repro.tuner.dispatch.matmul`): a failing batch
    plan degrades to classical per-element ``np.matmul``, the failure is
    charged to the plan's quarantine ledger, and the product is always
    returned.
    """
    policy = get_policy(tune)
    t_call = telemetry.clock_ns()
    ops = _normalize_operands(A, B)
    result = _batch_result(ops, out)
    batch = len(ops.a_list)
    if batch == 0:  # an empty stacked batch: nothing to resolve or run
        return result
    p, q, r = ops.p, ops.q, ops.r
    threads = resolve_threads(threads)
    dtype = ops.dtype.name
    cache = cache if cache is not None else dispatch._shared_cache()
    bplan, source = get_batch_plan(p, q, r, batch, dtype=dtype,
                                   threads=threads, cache=cache,
                                   batch_mode=batch_mode)
    if batch_mode is None and policy.should_tune(source):
        from repro.tuner.measure import tune_batch

        bplan = tune_batch(p, q, r, batch, dtype=dtype, threads=threads,
                           cache=cache)
        source = "tuned"
    workspace = _within_arena(bplan, ops, warm=True)
    served = bplan.plan
    drew = ((), 0)

    def run(_, dest):
        nonlocal drew
        drew = _run_batch(bplan, ops, dest, workspace, pool)
        return dest

    telemetry.incr("dispatch.batch_calls")
    telemetry.incr("dispatch.batch_elements", batch)
    telemetry.set_gauge("dispatch.batch_size", batch)
    cfg = chain.resolve_guard(guard)
    with telemetry.span("dispatch.batch", mode=bplan.mode):
        if cfg is None:
            run(None, result)
        else:
            result, served = chain.run_guarded(
                cfg, bplan.plan, run, (ops.a_list, ops.b_list), result,
                lambda: _batch_result(ops), cache,
                (p, q, r, dtype, threads), batch=batch)
    dispatch._report(bplan.plan, served, source, p, q, r, dtype, threads,
                     *drew, t_call,
                     batch=batch, batch_mode=bplan.mode)
    return result
