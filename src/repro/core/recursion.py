"""Reference recursive executor for fast algorithms (the "interpreter").

One of the two executors of a fast product, the compiled step
(:mod:`repro.codegen.cbackend`) being the other, and the reference the
step is tested against: without CSE the two agree bit for bit.  It is
what :func:`repro.tuner.dispatch.execute_plan` runs for a sequential
plan whose chains the compiled kernels do not form (dtypes other than
float32/float64 pairs, no compiler, no vendor cblas, a toolchain that
broke): given any ``FastAlgorithm`` it multiplies arbitrary-size
matrices by

1. *dynamic peeling* (Section 3.5): strip the at-most-(M-1)/(K-1)/(N-1)
   boundary rows/columns so the core is evenly divisible, recurse on the
   core, and patch the boundary contributions with thin classical products;
2. forming ``S_r``/``T_r`` from U/V columns, recursing for ``M_r = S_r T_r``,
   and accumulating ``C`` blocks from W rows;
3. stopping after ``steps`` recursion levels -- or earlier when a block
   dimension would vanish or a cutoff policy says the subproblem has left
   the flat part of the dgemm curve (Section 3.4).

Both entry points accept ``out=`` (write the product into caller storage)
and ``workspace=`` (a :class:`repro.core.workspace.Workspace` arena holding
the per-level ``S``/``T``/``M_r`` triples of Section 4.1).  With both
supplied, a call performs no array allocations at steady state; the
arithmetic is the *same sequence of ufunc/gemm calls* as the allocating
path, so results match it bit for bit.

One recursive step is stated here once.  Where the compiled step does
not serve, every parallel scheme runs this interpreter with a
``threads``-wide gemm (the paper's DFS); every driver and every footprint
simulator asks :meth:`CutoffPolicy.should_recurse` whether to split.
"""

from __future__ import annotations

import dataclasses
import inspect
import weakref
from typing import Callable, Iterable

import numpy as np

from repro.core.algorithm import FastAlgorithm
from repro.core.workspace import (
    Workspace,
    axpy,
    check_out,
    combine_into,
    needs_scratch,
)
from repro.util.matrices import (
    block_views,
    peel_fixup,
    peel_split,
    strip_scratch,
)
from repro.util.validation import check_matmul_dims, require_2d

BaseMultiply = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Default base case: the vendor BLAS gemm (numpy/OpenBLAS dgemm)."""
    return A @ B


#: weak memo so a throwaway lambda base (and everything its closure pins)
#: is collectable the moment the caller drops it
_accepts_out_memo: "weakref.WeakKeyDictionary[Callable, bool]" = (
    weakref.WeakKeyDictionary()
)


def _base_accepts_out(base: Callable) -> bool:
    """Whether a base-case callable takes an ``out=`` destination.

    Checked at every leaf, so the ``inspect.signature`` reflection is
    memoized (weakly) per callable; setting a ``_accepts_out`` attribute
    on the callable skips it entirely.
    """
    accepts = getattr(base, "_accepts_out", None)
    if accepts is not None:
        return bool(accepts)
    try:
        return _accepts_out_memo[base]
    except (KeyError, TypeError):  # miss, or a non-weakrefable builtin
        pass
    try:
        accepts = "out" in inspect.signature(base).parameters
    except (TypeError, ValueError):  # builtins without introspectable sigs
        accepts = False
    try:
        _accepts_out_memo[base] = accepts
    except TypeError:
        pass
    return accepts


def _leaf(base: BaseMultiply, A: np.ndarray, B: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Run the base case, writing into ``out`` when one is supplied.

    The default gemm base writes straight into ``out`` (no temporary); a
    custom base without ``out`` support is copied -- custom bases are a
    correctness/testing hook, not a steady-state serving path.
    """
    if out is None:
        return base(A, B)
    if base is _dot:
        return np.matmul(A, B, out=out)
    if _base_accepts_out(base):
        return base(A, B, out=out)
    np.copyto(out, base(A, B))
    return out


@dataclasses.dataclass(frozen=True)
class CutoffPolicy:
    """When to take another recursive step (Section 3.4).

    ``max_steps`` is the paper's "one, two or three steps of recursion";
    ``min_dim`` refuses to recurse once a subproblem dimension would drop
    below the measured flat part of the dgemm ramp-up curve.
    """

    max_steps: int = 1
    min_dim: int = 2

    def should_recurse(self, step: int, p: int, q: int, r: int,
                       m: int, k: int, n: int) -> bool:
        if step >= self.max_steps:
            return False
        # subproblem dims after one more split
        return min(p // m, q // k, r // n) >= max(self.min_dim, 1)


#: the policy of a composed schedule's level: split once, deeper levels
#: come from the next algorithm
ONE_STEP = CutoffPolicy(max_steps=1)


def should_split(steps: int, p: int, q: int, r: int,
                 m: int, k: int, n: int) -> bool:
    """:meth:`CutoffPolicy.should_recurse` for the callers that count
    ``steps`` down themselves -- the compiled step, the parallel
    schedules and the footprint simulators -- so that every executor and the
    arena sized for it stop splitting at the same subproblem."""
    return steps > 0 and ONE_STEP.should_recurse(0, p, q, r, m, k, n)


def combine_blocks(
    blocks: list[np.ndarray],
    coeffs: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray | None:
    """Form ``sum_i coeffs[i] * blocks[i]`` skipping zeros.

    Returns a *view* (no copy) when the combination is a single block with
    coefficient 1 -- the memory-saving special case of Section 3.1.  Returns
    None when all coefficients are zero.

    With ``out=`` the chain is written into caller storage fused
    (``np.multiply``/``np.add``/``np.subtract`` with ``out``); a byte
    ``scratch`` buffer additionally absorbs the ``c * block`` products of
    coefficients outside {0, +-1}, making the chain allocation-free.  The
    fused path performs the identical ufunc sequence on identical values,
    so it is bit-for-bit equal to the allocating path.
    """
    return _chain(blocks, _terms(coeffs), out, scratch)


def _terms(coeffs) -> tuple[tuple[int, float], ...]:
    """The nonzero ``(index, coefficient)`` pairs of one chain.  Python
    floats: under NEP 50 a numpy float64 scalar would silently upcast
    float32 blocks."""
    return tuple((int(i), float(coeffs[i])) for i in np.nonzero(coeffs)[0])


def _chain_terms(alg: FastAlgorithm):
    """The constants of ``alg`` every recursion node needs, derived once
    per algorithm: the :func:`_terms` of each U column, V column and W
    column (per product: which C blocks it reaches), and whether any
    coefficient calls for the scaling scratch."""
    return alg.memo("_chain_terms", lambda a: (
        [_terms(col) for col in a.U.T], [_terms(col) for col in a.V.T],
        [_terms(col) for col in a.W.T],
        needs_scratch(a.U) or needs_scratch(a.V) or needs_scratch(a.W)))


def _chain(blocks, terms, out, scratch):
    """:func:`combine_blocks` over the :func:`_terms` of its
    coefficients."""
    if not terms:
        return None
    (first, c0), rest = terms[0], terms[1:]
    if not rest and c0 == 1.0:
        return blocks[first]
    if out is None:
        out = blocks[first] * c0 if c0 != 1.0 else blocks[first].copy()
        for i, c in rest:
            axpy(out, blocks[i], c)
        return out
    combine_into(out, [blocks[i] for i, _ in terms], [c for _, c in terms],
                 scratch)
    return out


def _operands(A, B, out, workspace):
    """The validated ``(A, B, out)`` of one call; rewinds ``workspace``."""
    A = require_2d(A, "A")
    B = require_2d(B, "B")
    check_matmul_dims(A, B)
    if out is not None:
        out = check_out(out, A, B)
    if workspace is not None:
        workspace.reset()
    return A, B, out


def multiply(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: FastAlgorithm,
    steps: int = 1,
    base: BaseMultiply | None = None,
    cutoff: CutoffPolicy | None = None,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Multiply ``A @ B`` with ``algorithm``, recursing ``steps`` levels.

    ``base`` is called on the leaf subproblems (default: BLAS gemm); the
    classical algorithm is also used for all peeling fix-ups, as the
    compiled step does.

    ``out`` receives the product (it must match ``(p, r)`` and the result
    dtype and must not overlap ``A``/``B`` -- see
    :func:`repro.core.workspace.check_out`).  ``workspace`` supplies the
    per-level ``S``/``T``/``M_r`` buffers; build one with
    ``Workspace.for_recursion([algorithm.base_case] * steps, p, q, r,
    A.dtype, B.dtype)``.  With both, a warm call allocates nothing.
    """
    A, B, out = _operands(A, B, out, workspace)
    policy = cutoff if cutoff is not None else CutoffPolicy(max_steps=steps)
    return _recurse(A, B, algorithm, 0, base or _dot, policy, out=out,
                    ws=workspace)


def accumulate_products(
    blocksC: list[np.ndarray],
    alg: FastAlgorithm,
    products: Iterable[tuple[int, np.ndarray]],
    scratch: np.ndarray | None = None,
) -> None:
    """``C_i = sum_r W[i, r] * M_r`` over ``products`` = ``(r, M_r)`` pairs
    of ``alg``.

    Each product is consumed as it arrives (the DFS executors reuse one
    ``M_r`` buffer across ranks); a block no product reaches is zeroed.
    """
    _, _, w_terms, _ = _chain_terms(alg)
    started = [False] * len(blocksC)
    for rr, Mr in products:
        for i, c in w_terms[rr]:
            if started[i]:
                axpy(blocksC[i], Mr, c, scratch)
            else:  # a block's first contribution: C_i = c * M_r
                combine_into(blocksC[i], (Mr,), (c,), scratch)
                started[i] = True
    for i, s in enumerate(started):
        if not s:  # all-zero W row can only happen for degenerate inputs
            blocksC[i][:] = 0.0


def _recurse(
    A: np.ndarray,
    B: np.ndarray,
    alg: FastAlgorithm,
    step: int,
    base: BaseMultiply,
    policy: CutoffPolicy,
    out: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    p, q = A.shape
    r = B.shape[1]
    m, k, n = alg.base_case
    if not policy.should_recurse(step, p, q, r, m, k, n):
        return _leaf(base, A, B, out)

    # ---- dynamic peeling: carve the evenly divisible core ----
    A11, B11 = peel_split(A, m, k)[0], peel_split(B, k, n)[0]

    # the top-level C is the caller's ``out`` or a fresh array -- never
    # arena memory, which the next call would overwrite
    C = out if out is not None else np.empty((p, r), dtype=np.result_type(A, B))

    # ---- fast product on the core, thin classical products around it ----
    _core_multiply(A11, B11, C[:A11.shape[0], :B11.shape[1]], alg, step,
                   base, policy, ws)
    peel_fixup(C, A, B, alg.base_case, np.matmul,
               strip_scratch(ws, p, q, r, alg.base_case, C.dtype.itemsize))
    return C


def multiply_schedule(
    A: np.ndarray,
    B: np.ndarray,
    schedule: list[FastAlgorithm],
    base: BaseMultiply | None = None,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Multiply using a *different* algorithm at each recursion level.

    This is the paper's "composed" construction (Section 5.2): e.g.
    ``schedule = [<3,3,6>, <3,6,3>, <6,3,3>]`` realizes the <54,54,54>
    algorithm with ``prod(R_i)`` total multiplications and exponent
    ``3 log_54 40 ~= 2.775`` when every level has rank 40.  Recursion depth
    equals ``len(schedule)``; dynamic peeling applies at every level.

    ``out``/``workspace`` follow :func:`multiply`; size the arena with
    ``Workspace.for_recursion([alg.base_case for alg in schedule], ...)``.
    """
    A, B, out = _operands(A, B, out, workspace)
    base = base or _dot

    def run(X: np.ndarray, Y: np.ndarray, level: int,
            out: np.ndarray | None = None) -> np.ndarray:
        if level >= len(schedule):
            return _leaf(base, X, Y, out)
        alg = schedule[level]

        # one-level policy: recurse exactly once here, deeper via closure
        def inner_base(S: np.ndarray, T: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
            return run(S, T, level + 1, out=out)

        inner_base._accepts_out = True
        return _recurse(X, Y, alg, 0, inner_base, ONE_STEP,
                        out=out, ws=workspace)

    return run(A, B, 0, out=out)


def _core_multiply(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    alg: FastAlgorithm,
    step: int,
    base: BaseMultiply,
    policy: CutoffPolicy,
    ws: Workspace | None = None,
) -> None:
    """One recursion level on an evenly divisible core, writing into C."""
    m, k, n = alg.base_case
    blocksA = block_views(A, m, k)
    blocksB = block_views(B, k, n)
    u_terms, v_terms, _, scaled = _chain_terms(alg)

    S_buf = T_buf = M_buf = scratch = None
    level_mark = None
    if ws is not None:
        # one S/T/M_r triple per level, reused across all R ranks and all
        # sibling subtrees -- the Section 4.1 DFS memory discipline
        level_mark = ws.mark()
        bp, bq = blocksA[0].shape
        br = blocksB[0].shape[1]
        S_buf = ws.take((bp, bq), A.dtype)
        T_buf = ws.take((bq, br), B.dtype)
        M_buf = ws.take((bp, br), C.dtype)
        if scaled:
            scratch = ws.take_scratch(max(S_buf.nbytes, T_buf.nbytes,
                                          M_buf.nbytes))

    def products():
        for rr in range(alg.rank):
            S = _chain(blocksA, u_terms[rr], S_buf, scratch)
            T = _chain(blocksB, v_terms[rr], T_buf, scratch)
            if S is None or T is None:
                continue  # dead product (possible in composed algorithms)
            if ws is None:
                yield rr, _recurse(S, T, alg, step + 1, base, policy)
            else:
                inner = ws.mark()
                Mr = _recurse(S, T, alg, step + 1, base, policy,
                              out=M_buf, ws=ws)
                ws.release(inner)
                yield rr, Mr

    accumulate_products(block_views(C, m, n), alg, products(), scratch)
    if ws is not None:
        ws.release(level_mark)
