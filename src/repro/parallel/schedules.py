"""Shared-memory parallel fast matrix multiplication (paper Section 4).

Three schemes, each an entry point of the one compiled step
(:meth:`repro.codegen.cbackend.CompiledChains.step`, the C library's
``fmm_step`` over the algorithm's descriptor):

- **DFS** (Section 4.1): the sequential step, with every gemm it issues
  on all P BLAS threads and each level's ``form_S``/``form_T``/``form_C``
  over P row ranges on the same threads (the C library's team, which the
  vendor's regions run on too: :func:`repro.parallel.blas.install_team`).
  Needs large leaves to profit (the parallel dgemm ramp-up is flatter).

- **BFS** (Section 4.2): task parallelism.  The schedule forms the top
  level itself -- ``form_S``/``form_T`` over row ranges on the pool --
  and runs the child products ``S_r T_r`` side by side, one thread each.
  A wave of children with a level left to run is a pool task per child:
  one ``fmm_step`` call, ``steps - 1`` levels deep, with a one-thread
  gemm.  A wave of leaves is one vendor batched gemm
  (:func:`repro.parallel.blas.gemm_batch`) at P-thread BLAS, which runs
  each product as a one-thread gemm on one thread of the team -- the same
  bits.  The team's threads block as soon as the wave ends, so the pool
  tasks that follow have the cores to themselves.  Leaves the vendor call
  does not take (at or under its crash guard,
  :data:`repro.parallel.blas.BATCH_MIN_VOLUME`) stay pool tasks.  The
  tree's own fan-outs -- the top levels' forms, its tasks -- run on the
  pool; its tasks call the step at one thread.
  ``form_C`` over row ranges and the peel fix-ups finish the level.

- **HYBRID** (Section 4.3): the same, except that the leaves which do not
  fill a whole wave of P tasks run DFS style with all threads *after* the
  task waves complete (the paper's explicit synchronization that avoids
  oversubscription).

The split is at leaf granularity, as the paper's is.  The children that
fill whole waves run as tasks; the ``R mod P`` left over are expanded one
more level in the same way, and so on, so exactly ``R^L mod P`` leaves are
left for the all-threads remainder (HYBRID) or a last partial wave of
tasks (BFS).  Memory follows CAPS (Ballard et al. 2012): BFS levels only
where the parallelism needs them, DFS below.  Every level keeps only the
products its ``C`` cannot hold: a product lives in the block of ``C``
whose chain reads it last, where that chain reads it in its first pass
(:func:`repro.codegen.cbackend.c_hosts`; 4 of Strassen's 7), so the
arena holds the top level's S and T slabs and its other products' rows,
those of the few expanded left-over nodes, and P regions each task's
step carves its own levels from (:func:`parallel_footprint`).  A task
borrows one region for its duration, so no two running steps share one,
and a retried task recomputes its product from its operands in
whichever region it borrows.

**What runs** is decided per call by
:func:`repro.codegen.cbackend.chains_fused` -- it is not a plan dimension
and nothing selects it.  DFS is a sequential plan's product
(:func:`repro.codegen.cbackend.multiply_sequential`) at P-thread BLAS, so
it follows the sequential rule: the step for any float pair, packed where
the step cannot address it, on a host where the library compiles and the
vendor's cblas is found.  The tree hands the caller's operands to its
tasks as they are, so it also needs operands of one kernel dtype
(float32 or float64) that the step can address in place.  Everything
else -- mixed or non-float dtypes, strided operands, no compiler or
cblas, a compile that fails at the call -- runs the interpreter
(:func:`repro.core.recursion.multiply`) with a P-thread gemm, which is
the paper's DFS.

Every scheme accepts ``out=`` and ``workspace=`` (a
:class:`repro.core.workspace.Workspace`, in which the call reserves
:func:`parallel_footprint` bytes for what it runs).  Buffers are carved
*before* tasks fan out (deterministic, no allocator in any task body), so
a warm call performs no large allocations.
"""

from __future__ import annotations

import itertools
import queue

import numpy as np

from repro.codegen import cbackend
from repro.core import recursion
from repro.core.algorithm import FastAlgorithm
from repro.core.workspace import (
    ALIGNMENT,
    Workspace,
    cbackend_carve_bytes,
    level_elements,
    takes_footprint,
)
from repro.obs import telemetry
from repro.parallel import blas
from repro.parallel.pool import WorkerPool, _row_slabs, available_cores
from repro.util.matrices import peel_fixup, peel_split

SCHEMES = ("dfs", "bfs", "hybrid")


def _label_tasks(pool: WorkerPool, text: str) -> None:
    """Tag tasks submitted after this point with a phase label, when the
    pool records labels at all (duck-typed: ``TracedPool.label``).  The
    label lands on every ``TaskEvent`` of the phase, which the telemetry
    registry aggregates as a ``task.<label>`` span -- so per-scheme,
    per-phase task totals come out of the same stream the trace holds."""
    set_label = getattr(pool, "label", None)
    if set_label is not None:
        set_label(text)


# =========================================================================
# BFS / HYBRID: the levels the schedule forms itself, tasks below them
# =========================================================================
def _tree_levels(alg: FastAlgorithm, steps: int, p: int, q: int, r: int,
                 threads: int, hybrid: bool) -> list[tuple[int, tuple, int]]:
    """The levels a BFS/HYBRID call on ``p x q x r`` forms itself.

    Per level ``(nodes, (bp, bq, bn), tasks)``: how many nodes it splits,
    the block dimensions their children inherit, and how many of those
    ``nodes * R`` children run as tasks -- those that fill whole waves of
    ``threads``.  The rest are the next level's nodes or, once the
    children are leaves, HYBRID's ``R^L mod threads`` remainder (BFS runs
    them in its last wave).  A root that does not split is the one leaf
    of the remainder.
    """
    m, k, n = alg.base_case
    levels: list[tuple[int, tuple, int]] = []
    nodes = 1
    while (nodes and len(levels) < steps
           and recursion.should_split(1, p, q, r, m, k, n)):
        p, q, r = p // m, q // k, r // n
        children = nodes * alg.rank
        rest = children % threads
        if not hybrid and (len(levels) + 1 == steps or
                           not recursion.should_split(1, p, q, r, m, k, n)):
            rest = 0
        levels.append((nodes, (p, q, r), children - rest))
        nodes = rest
    return levels


def _region_bytes(alg: FastAlgorithm, real, levels: list,
                  steps: int) -> int:
    """The carve of the deepest step a task runs below ``levels``."""
    return max((cbackend_carve_bytes(alg, False, real, *blk, steps - lvl - 1)
                for lvl, (_, blk, tasks) in enumerate(levels) if tasks),
               default=0)


def _tree_products(alg: FastAlgorithm, cse: bool) -> int:
    """The product rows a level the tree forms holds: one for every rank
    whose product its ``C`` cannot hold
    (:func:`repro.codegen.cbackend.c_hosts`)."""
    return alg.rank - len(cbackend.c_hosts(alg, cse))


class _Level:
    """One node whose level the schedule forms itself: ``C = A @ B`` with
    its S and T slabs (a row per non-alias chain; alias chains are views
    of ``A``'s and ``B``'s blocks) and its products, which its children
    write and ``form_C`` reads: a product ``C`` holds is a view of its
    block, every other one a row of the level's product slab."""

    def __init__(self, cc: "cbackend.CompiledChains", A, B, C, take):
        m, k, n = cc.algorithm.base_case
        self.cc, self.A, self.B, self.C = cc, A, B, C
        self.A11, A12 = peel_split(A, m, k)[:2]
        self.B11, _, B21, _ = peel_split(B, k, n)
        self.strip = (A12, B21)
        self.blk = bp, bq, bn = (self.A11.shape[0] // m,
                                 self.A11.shape[1] // k,
                                 self.B11.shape[1] // n)
        s, t, m, _ = level_elements(cc.algorithm, cc.cse, self.blk,
                                    _tree_products(cc.algorithm, cc.cse))
        self.S, self.T, slab = (
            take((nelems // width, width), cc.dtype)
            for nelems, width in ((s, bp * bq), (t, bq * bn), (m, bp * bn)))
        core = C[:self.A11.shape[0], :self.B11.shape[1]]
        hosts, rows = cbackend.c_hosts(cc.algorithm, cc.cse), iter(slab)
        self.M = [cbackend.block(core, hosts[rr], bp, bn) if rr in hosts
                  else next(rows).reshape(bp, bn)
                  for rr in range(cc.algorithm.rank)]
        self.products = cc.product_rows(self.M)

    def children(self) -> list[tuple]:
        """``(S_r, T_r, M_r)`` per rank."""
        bp, bq, bn = self.blk
        return [(self.cc.operand("s", rr, self.S, self.A11, bp, bq),
                 self.cc.operand("t", rr, self.T, self.B11, bq, bn),
                 self.M[rr])
                for rr in range(self.cc.algorithm.rank)]

    def form_items(self, parts: int) -> list[tuple]:
        return [(self.form, rows) for rows in itertools.zip_longest(
            _row_slabs(self.blk[0], parts), _row_slabs(self.blk[1], parts))]

    def form(self, rows) -> None:
        """Task body: one row range of every S chain and of every T chain."""
        bp, bq, bn = self.blk
        s_rows, t_rows = rows
        if s_rows is not None:
            self.cc.form_S(self.A11, bp, bq, self.S, s_rows.start,
                           s_rows.stop)
        if t_rows is not None:
            self.cc.form_T(self.B11, bq, bn, self.T, t_rows.start,
                           t_rows.stop)

    def combine_items(self, parts: int) -> list[tuple]:
        return [(self.combine, rows)
                for rows in _row_slabs(self.blk[0], parts)]

    def combine(self, rows: slice) -> None:
        """Task body: one row range of every block of the core of C, the
        peeled inner strip included."""
        bp, _, bn = self.blk
        self.cc.form_C(self.products, bp, bn, self.C, None, rows.start,
                       rows.stop, strip=self.strip)

    def fixup(self) -> None:
        """The thin products of dynamic peeling; ``form_C`` added the
        strip."""
        peel_fixup(self.C, self.A, self.B, self.cc.algorithm.base_case,
                   np.matmul, strip=False)


def _fan_out(pool: WorkerPool, work: list[tuple]) -> None:
    """One barrier over ``(bound task body, item)`` pairs, retryable: a
    form body recomputes its rows from its inputs, and a combine body,
    which stores blocks of C over the products they hold, can raise only
    before its one kernel call writes anything."""
    pool.map_wait(lambda wi: wi[0](wi[1]), work, retryable=True)


def _run_tree(cc: "cbackend.CompiledChains", kernels, A, B, C, steps: int,
              pool: WorkerPool, threads: int, hybrid: bool,
              ws: Workspace | None) -> np.ndarray:
    """BFS, or HYBRID when ``hybrid``: the two differ only in what
    happens to the ``R^L mod P`` leaves left over from whole waves
    (:func:`_tree_levels`)."""
    name = "hybrid" if hybrid else "bfs"
    batch = "bfs_batch" if hybrid else "leaf"
    take = np.empty if ws is None else ws.take

    def phase(part: str):
        _label_tasks(pool, f"{name}.{part}")
        return telemetry.span(f"parallel.{name}.{part}")

    levels = _tree_levels(cc.algorithm, steps, A.shape[0], *B.shape,
                          threads, hybrid)
    # a step region per thread, carved before any wave (+ one cache line:
    # the step aligns its start); a task borrows one for its duration
    nbytes = _region_bytes(cc.algorithm, cc.dtype, levels, steps)
    regions: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(threads):
        regions.put(take((nbytes + ALIGNMENT,), np.uint8) if nbytes else None)

    def product(child, left: int) -> None:
        S, T, M = child
        region = regions.get()
        try:
            cc.step(kernels, S, T, left, M, region)
        finally:
            regions.put(region)

    def tasks(children, left: int) -> None:
        pool.map_wait(lambda child: product(child, left), children,
                      retryable=True)

    def vendor_wave(children) -> bool:
        """The wave's leaf products in one vendor batched call on the
        vendor's own ``threads`` threads; False (nothing ran) where the
        vendor does not take them."""
        with blas.blas_threads(threads):
            done = blas.gemm_batch(*zip(*children))
        telemetry.tally("vendor", done)
        return done > 0

    base = cc.algorithm.base_case
    formed: list[list[_Level]] = []
    nodes = [(A, B, C)]
    for lvl, (_, blk, n_tasks) in enumerate(levels):
        with phase("expand"):
            level = [_Level(cc, *node, take) for node in nodes]
            parts = -(-threads // len(level))
            _fan_out(pool, [wi for nd in level for wi in nd.form_items(parts)])
        formed.append(level)
        children = [child for nd in level for child in nd.children()]
        left = steps - lvl - 1
        if n_tasks:
            with phase(batch):
                leaves = not recursion.should_split(left, *blk, *base)
                if not (leaves and vendor_wave(children[:n_tasks])):
                    with blas.blas_threads(1):
                        tasks(children[:n_tasks], left)
        nodes = children[n_tasks:]
    left = steps - len(levels)
    if nodes:
        # after an explicit barrier (the paper's lock scheme): DFS
        with phase("remainder"), blas.blas_threads(threads):
            for child in nodes:
                product(child, left)
    with phase("combine"), blas.blas_threads(threads):
        for level in reversed(formed):
            parts = -(-threads // len(level))
            _fan_out(pool, [wi for nd in level
                            for wi in nd.combine_items(parts)])
            for nd in level:
                nd.fixup()
    return C


# =========================================================================
# public entry points
# =========================================================================
def parallel_footprint(
    algorithm: FastAlgorithm,
    steps: int,
    scheme: str,
    p: int,
    q: int,
    r: int,
    dtype_a="float64",
    dtype_b=None,
    fused: bool | None = None,
    threads: int | None = None,
) -> int:
    """Arena bytes one :func:`multiply_parallel` call at ``threads``
    (default: every core) draws.

    The layout follows what runs (``fused``; default: what
    :func:`repro.codegen.cbackend.chains_fused` says for these dtypes and
    ``scheme``).  DFS is the sequential product, and so is the
    interpreter every scheme falls back to
    (:func:`repro.codegen.cbackend.sequential_footprint`); BFS and HYBRID
    hold the slabs of every level they form themselves
    (:func:`repro.core.workspace.level_elements`, a row for every product
    the level's ``C`` cannot hold) and ``threads`` step regions.
    """
    dtype_b = dtype_a if dtype_b is None else dtype_b
    if fused is None:
        fused = cbackend.chains_fused(dtype_a, dtype_b, scheme)
    if scheme == "dfs" or not fused:
        return cbackend.sequential_footprint(algorithm, steps, p, q, r,
                                             dtype_a, dtype_b, fused)
    threads = threads or available_cores()
    real = cbackend.kernel_dtype(dtype_a, dtype_b)
    levels = _tree_levels(algorithm, steps, p, q, r, threads,
                          scheme != "bfs")
    takes = [(nelems * real.itemsize, nodes)
             for nodes, blk, _ in levels
             for nelems in level_elements(algorithm, False, blk,
                                          _tree_products(algorithm,
                                                         False))[:3]]
    region = _region_bytes(algorithm, real, levels, steps)
    if region:
        takes.append((region + ALIGNMENT, threads))
    return takes_footprint(takes)


def multiply_parallel(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: FastAlgorithm,
    steps: int = 1,
    scheme: str = "hybrid",
    pool: WorkerPool | None = None,
    threads: int | None = None,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Parallel fast multiply ``A @ B`` (Section 4).

    ``scheme`` is one of ``dfs``, ``bfs``, ``hybrid``; ``threads``
    defaults to the pool's worker count.

    What runs is decided here, per call, from what the call can observe
    (module docstring): the compiled step where the operands allow it and
    its module loads, else the interpreter with a ``threads``-wide gemm --
    also when the compile fails at this very call (counted in
    ``cbackend.fallbacks``, warned once per algorithm).

    ``out`` receives the product; every temporary is drawn from
    ``workspace``, in which the call reserves :func:`parallel_footprint`
    bytes for what it runs, whatever the caller sized it for, so a warm
    ``(out, workspace)`` call performs no large allocations.
    """
    A, B = np.asarray(A), np.asarray(B)
    # integer operands are the interpreter's, before they become float64
    dtypes = (A.dtype, B.dtype)
    A, B, out = recursion._operands(A, B, out, workspace)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    P = threads or (pool.workers if pool is not None else available_cores())
    cc = (cbackend.step_chains(algorithm, scheme, A, B, out)
          if dtypes == (A.dtype, B.dtype) else None)
    if workspace is not None:
        # the caller sized the arena from (plan, shape, dtypes); what runs
        # was decided just now, from the operands and the compile: the
        # layout reserved is its
        workspace.reserve(parallel_footprint(
            algorithm, steps, scheme, A.shape[0], *B.shape, A.dtype,
            B.dtype, fused=cc is not None, threads=P))
    with telemetry.span("parallel." + scheme, threads=P,
                        chains="numpy" if cc is None else "fused"):
        if cc is None or scheme == "dfs":
            # DFS, and whatever the tree cannot run: the sequential
            # product under a P-thread BLAS
            with blas.blas_threads(P):
                return cbackend.multiply_sequential(
                    cc, A, B, algorithm, steps, out, workspace, P)
        C = out if out is not None else np.empty(
            (A.shape[0], B.shape[1]), dtype=cc.dtype)
        owns_pool = pool is None
        pool = pool or WorkerPool(P)
        try:
            return _run_tree(cc, blas.matmul_kernels(cc.real), A, B, C,
                             steps, pool, P, scheme == "hybrid", workspace)
        finally:
            if owns_pool:
                pool.shutdown()
