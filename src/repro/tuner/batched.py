"""Batched dispatch: one decision, one arena, one tail for a whole batch.

``repro.matmul_batched`` serves many same-shape products, each small
enough that plan resolution, arena lookup and the serving tail are a
visible share of the call (the Section 3.4 regime below the dgemm
ramp-up knee -- exactly where a serving workload of repeated small
products lives).  A batch is a request of ``batch`` products: it crosses
the one serving tail every ``matmul`` call crosses
(:func:`repro.tuner.dispatch._serve`), which resolves the shape's
per-call plan **once** -- the plan ``matmul`` would serve one element,
through the same resolution ladder, ``tune`` policy and plan-cache key --
and runs every element through
:func:`repro.tuner.dispatch.execute_plan` with that plan, one after
another, in the calling thread's arena.  A warm batched call with
``out=`` touches the heap zero times end to end, not just per element.
A stacked batch whose plan is plain BLAS is one :func:`execute_plan
<repro.tuner.dispatch.execute_plan>` call over the two 3-D stacks, with
one BLAS thread switch instead of one per element.  At ``T > 1`` threads
its whole waves of ``T`` products are one vendor batched gemm
(:func:`repro.parallel.blas.gemm_batch`), each product a one-thread gemm
on one of the vendor's threads (the paper's BFS, with the one-thread
bits), and the ``count mod T`` left over run at ``T``-thread gemm
(HYBRID's rule for leaves that do not fill a wave); at one thread, and
for what the vendor call does not take (mixed or non-float dtypes,
layouts it cannot address, products at or under its crash guard), it is
``np.matmul`` over the stacks.  The list form and every fast plan keep
the per-element loop.

Operands are promoted as :func:`repro.tuner.matmul` promotes them: a
stack of anything but float32/float64 (integers, booleans) computes in
float64, as each of its 2-D elements would.

There is no batch-specific axis to tune, price or cache: the batch
inherits whatever the per-call plan's schedule does with ``threads``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.workspace import check_out
from repro.guard import chain
from repro.parallel.pool import WorkerPool, resolve_threads
from repro.tuner import dispatch
from repro.tuner.cache import PlanCache
from repro.tuner.policy import TuningPolicy, get_policy
from repro.tuner.space import Plan
from repro.util.validation import as_floating, check_matmul_dims, require_2d


# ---------------------------------------------------------------------------
# operand normalization: stacked 3-D arrays or lists of same-shape 2-D
# ---------------------------------------------------------------------------
class _Batch(NamedTuple):
    """A batch's operands, validated once per call and passed down:
    ``a`` / ``b`` are the two 3-D stacks, or two lists of 2-D arrays --
    indexing and iterating either yields the 2-D elements."""

    a: np.ndarray | list
    b: np.ndarray | list
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
        # promoted as require_2d promotes each element of the list form
        A, B = as_floating(A), as_floating(B)
        return _Batch(A, B, A.shape[1], A.shape[2], B.shape[2], True,
                      np.result_type(A, B))
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
    batch = len(ops.a)
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
        if np.may_share_memory(out, ops.a) or np.may_share_memory(out, ops.b):
            raise ValueError("out must not overlap A or B")
        return out
    if not isinstance(out, (list, tuple)) or len(out) != batch:
        raise ValueError(
            f"out must be a list of {batch} 2-D arrays for list operands"
        )
    for c, a, b in zip(out, ops.a, ops.b):
        check_out(c, a, b)
        # the elements run in turn: a destination over another element's
        # operand would overwrite it before that element reads it
        if any(np.may_share_memory(c, x) for x in (*ops.a, *ops.b)):
            raise ValueError("out must not overlap A or B")
    return out


# ---------------------------------------------------------------------------
# resolution: the per-call plan, once for the whole batch
# ---------------------------------------------------------------------------
class BatchPlan(NamedTuple):
    """What a batch runs: its per-call ``plan``, once per element."""

    plan: Plan
    batch: int

    def describe(self) -> str:
        return f"{self.batch} x {self.plan.describe()}"


def get_batch_plan(
    p: int,
    q: int,
    r: int,
    batch: int,
    dtype: str = "float64",
    threads: int | None = None,
    cache: PlanCache | None = None,
) -> tuple[BatchPlan, str]:
    """Resolve what a batch of ``batch`` ``p x q x r`` products runs;
    ``(bplan, source)``.  ``bplan.plan`` and ``source`` are exactly
    :func:`repro.tuner.dispatch.get_plan`'s for the shape: a batch runs
    the plan a single call would."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    plan, source = dispatch.get_plan(p, q, r, dtype, threads, cache)
    return BatchPlan(plan, batch), source


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
    pool: WorkerPool | None = None,
    guard: bool | float | str | chain.GuardConfig | None = None,
) -> np.ndarray | list[np.ndarray]:
    """Multiply a batch of same-shape products with one amortized decision.

    ``A`` and ``B`` are stacked 3-D arrays (``(b, p, q) @ (b, q, r)``,
    returning ``(b, p, r)``) or lists of same-shape 2-D arrays (returning
    a list).  ``out=`` mirrors the input form (a 3-D stack or a list of
    2-D destinations); with it a repeat call for a resolved shape is
    allocation-free for the *whole batch* -- one plan lookup, one arena,
    one persistent worker pool.

    Every element runs the shape's per-call plan, resolved once: ``tune``
    takes the names :func:`repro.tuner.matmul` takes, with the same
    meaning and the same plan-cache entry (``"auto"`` measures the shape
    once when it resolves to the cost model).  ``guard`` opts the whole
    batch into the same fault-tolerant ladder as
    :func:`repro.tuner.dispatch.matmul`: a failing plan degrades to the
    cost model's next plan, then to classical per-element ``np.matmul``,
    the failure is charged to the shape's quarantine ledger, and the
    product is always returned.
    """
    policy = get_policy(tune)
    ops = _normalize_operands(A, B)
    result = _batch_result(ops, out)
    batch = len(ops.a)
    if batch == 0:  # an empty stacked batch: nothing to resolve or run
        return result
    cache = cache if cache is not None else dispatch._shared_cache()
    return dispatch._serve(
        policy, chain.resolve_guard(guard), ops.a, ops.b, ops.p, ops.q,
        ops.r, dispatch._dtype_name(ops.dtype), resolve_threads(threads),
        cache, pool, result, lambda: _batch_result(ops), batch=batch)
