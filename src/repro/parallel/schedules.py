"""Shared-memory parallel fast matrix multiplication (paper Section 4).

Three schemes over the recursion tree:

- **DFS** (Section 4.1): ordinary depth-first recursion; every leaf gemm
  uses *all* P threads (vendor-BLAS parallelism) and every addition chain
  is row-slab parallelized.  Code path identical to sequential
  (:func:`repro.core.recursion._recurse` itself); needs large leaves to
  profit (the parallel dgemm ramp-up is flatter).

- **BFS** (Section 4.2): task parallelism.  The recursion tree is expanded
  level-synchronously: one task per (node, r) forms ``S_r``/``T_r`` with
  its additions, a ``taskwait`` barrier separates levels, the ``R^L`` leaf
  products run as independent single-BLAS-thread tasks, and combine stages
  walk back up with one task per node.  Needs ~R/(MN) extra memory per
  level and suffers load imbalance when P does not divide the task count.

- **HYBRID** (Section 4.3): the first ``R^L - (R^L mod P)`` leaves run BFS
  style (perfectly load balanced), the remaining ``R^L mod P`` run DFS
  style with all threads *after* the BFS batch completes (the paper's
  explicit synchronization that avoids oversubscription).  The alternative
  sub-group variant assigns the remainder to disjoint groups of P' < P
  threads; both are implemented.

Dynamic peeling applies at every node: the boundary fix-up products
(:func:`repro.util.matrices.peel_fixup`) run during its combine stage.

Every scheme accepts ``out=`` and ``workspace=`` (a
:class:`repro.core.workspace.Workspace`): DFS reuses one per-level
``S``/``T``/``M_r`` triple from the arena, BFS/HYBRID draw every node's
``S``/``T`` operands and result storage from per-level arena pools whose
sizes follow the Section 4.2 per-level memory formula.  Buffers are
preassigned *before* tasks fan out (deterministic, no allocator in any
task body), so a warm call performs no large allocations.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.core.algorithm import FastAlgorithm
from repro.core import recursion
from repro.core.recursion import accumulate_products, combine_blocks
from repro.core.workspace import Workspace, needs_scratch
from repro.obs import telemetry
from repro.parallel import blas
from repro.parallel.gemm import dgemm
from repro.parallel.pool import (
    WorkerPool,
    parallel_axpy,
    parallel_combine,
)
from repro.util.matrices import block_views, peel_fixup, peel_split

SCHEMES = ("dfs", "bfs", "hybrid", "hybrid-subgroup")


def _label_tasks(pool: WorkerPool, text: str) -> None:
    """Tag tasks submitted after this point with a phase label, when the
    pool records labels at all (duck-typed: ``TracedPool.label``).  The
    label lands on every ``TaskEvent`` of the phase, which the telemetry
    registry aggregates as a ``task.<label>`` span -- so per-scheme,
    per-phase task totals come out of the same stream the trace holds."""
    set_label = getattr(pool, "label", None)
    if set_label is not None:
        set_label(text)


def default_subgroup(threads: int) -> int:
    """Fallback P' for the sub-group hybrid when the caller pins none.

    Half the threads (two groups) is the paper's illustrative choice; the
    tuner never relies on this -- it sweeps P' over the divisors of the
    thread count and lets the cost model + measurement decide
    (``repro.tuner.space.subgroup_candidates``).
    """
    return max(1, threads // 2)


# =========================================================================
# DFS: the reference recursion with every addition and gemm on all threads
# =========================================================================
def _run_dfs(A, B, alg: FastAlgorithm, steps: int, pool: WorkerPool,
             threads: int, out, ws: Workspace | None) -> np.ndarray:
    """:func:`repro.core.recursion._recurse` with the pool's row-slab adders
    ("matrix additions are trivially parallelized", Section 4.1) and a
    ``threads``-wide gemm for the leaves and the peeling fix-ups."""
    gemm = functools.partial(dgemm, threads=threads)
    gemm._accepts_out = True  # spares _leaf the reflection
    ops = recursion._Ops(functools.partial(parallel_combine, pool),
                         functools.partial(parallel_axpy, pool), gemm)
    return recursion._recurse(A, B, alg, 0, gemm,
                              recursion.CutoffPolicy(max_steps=steps),
                              out=out, ws=ws, ops=ops)


# =========================================================================
# BFS / HYBRID: level-synchronous task tree
# =========================================================================
@dataclasses.dataclass
class _Preassigned:
    """What a combine task hands :func:`peel_fixup` as its arena: the one
    buffer carved for it before the tasks fanned out (a task body must
    never touch the shared bump pointer)."""

    buf: np.ndarray

    def mark(self) -> None:
        return None

    def take(self, shape, dtype) -> np.ndarray:
        return self.buf

    def release(self, mark) -> None:
        pass


@dataclasses.dataclass
class _Node:
    """One subproblem in the recursion tree."""

    A: np.ndarray
    B: np.ndarray
    level: int
    alg: FastAlgorithm
    children: list["_Node"] = dataclasses.field(default_factory=list)
    result: np.ndarray | None = None
    #: preassigned result storage (arena pool view, or the caller's ``out``)
    result_buf: np.ndarray | None = None
    # the eight peeling views, captured at expansion, applied at combine
    _peel: tuple | None = None
    # (S_buf, T_buf, scratch) per rank, preassigned before the form tasks run
    _child_bufs: list | None = None
    # combine-stage scratch for W coefficients outside {0, +-1}
    _scratch: np.ndarray | None = None
    # preassigned (pc x rc) buffer for the inner-dimension peel fix-up
    _qfix: _Preassigned | None = None

    def expand(self) -> list[tuple["_Node", int]]:
        """Split into per-rank child subproblems; returns (self, r) work
        items whose S/T formation runs as tasks."""
        m, k, n = self.alg.base_case
        self._peel = peel_split(self.A, m, k) + peel_split(self.B, k, n)
        self.children = [None] * self.alg.rank  # type: ignore[list-item]
        self._child_bufs = [(None, None, None)] * self.alg.rank
        return [(self, r) for r in range(self.alg.rank)]

    def core_shape(self) -> tuple[int, int, int]:
        """``(pc, qc, rc)`` of the evenly divisible core."""
        return self._peel[0].shape + self._peel[4].shape[1:]

    def form_child(self, r: int) -> "_Node":
        """Task body: form (S_r, T_r) with serial additions (they belong to
        the task, Section 4.2)."""
        m, k, n = self.alg.base_case
        S_buf, T_buf, scr = self._child_bufs[r]
        S = combine_blocks(block_views(self._peel[0], m, k),
                           self.alg.U[:, r], out=S_buf, scratch=scr)
        T = combine_blocks(block_views(self._peel[4], k, n),
                           self.alg.V[:, r], out=T_buf, scratch=scr)
        child = _Node(S, T, self.level + 1, self.alg)
        self.children[r] = child
        return child

    def leaf_multiply(self) -> None:
        self.result = np.matmul(self.A, self.B, out=self.result_buf)

    def combine(self) -> None:
        """Task body: assemble C from children products + peel fix-ups."""
        pc, _, rc = self.core_shape()
        m, _, n = self.alg.base_case
        C = self.result_buf
        if C is None:
            C = np.empty((self.A.shape[0], self.B.shape[1]),
                         dtype=np.result_type(self.A, self.B))
        accumulate_products(
            block_views(C[:pc, :rc], m, n), self.alg.W,
            ((rr, child.result) for rr, child in enumerate(self.children)),
            scratch=self._scratch)
        peel_fixup(C, self._peel, np.matmul, self._qfix)
        self.result = C
        self.children = []  # release child references promptly


def _expand_tree(
    root: _Node,
    levels: int,
    pool: WorkerPool,
    ws: Workspace | None = None,
) -> list[list[_Node]]:
    """Level-synchronous expansion with a taskwait barrier per level.

    Every node of a level has the same shape (children inherit one peeled
    core), so a level splits whole or not at all and the leaves are
    exactly ``tree[-1]``.  With an arena, each level's S/T pool is carved
    *serially* here before the form tasks fan out -- the per-level pools
    of Section 4.2, assigned deterministically so no task body ever
    touches the bump pointer.
    """
    policy = recursion.CutoffPolicy(max_steps=levels)
    m, k, n = root.alg.base_case
    uv_scratch = needs_scratch(root.alg.U) or needs_scratch(root.alg.V)
    tree: list[list[_Node]] = [[root]]
    for level in range(levels):
        head = tree[-1][0]
        if not policy.should_recurse(level, *head.A.shape, head.B.shape[1],
                                     m, k, n):
            break  # too small: the level stays leaves, multiplied directly
        work = [item for node in tree[-1] for item in node.expand()]
        if ws is not None:
            for node, rr in work:
                pc, qc, rc = node.core_shape()
                S_buf = ws.take((pc // m, qc // k), node.A.dtype)
                T_buf = ws.take((qc // k, rc // n), node.B.dtype)
                scr = None
                if uv_scratch:
                    scr = ws.take_scratch(max(S_buf.nbytes, T_buf.nbytes))
                node._child_bufs[rr] = (S_buf, T_buf, scr)
        # forming a child recomputes S/T from the parent's operands
        # into preassigned buffers -- idempotent, so retryable
        tree.append(pool.map_wait(lambda wi: wi[0].form_child(wi[1]), work,
                                  retryable=True))
    return tree


def _combine_tree(
    tree: list[list[_Node]],
    pool: WorkerPool,
    ws: Workspace | None = None,
) -> None:
    w_scratch = needs_scratch(tree[0][0].alg.W)
    for nodes in reversed(tree[:-1]):
        if ws is not None:
            _assign_result_buffers(nodes, ws)
            for nd in nodes:
                pc, qc, rc = nd.core_shape()
                ctype = np.result_type(nd.A, nd.B)
                if w_scratch:
                    m, _, n = nd.alg.base_case
                    nd._scratch = ws.take_scratch(
                        (pc // m) * (rc // n) * ctype.itemsize)
                if nd.A.shape[1] != qc:
                    nd._qfix = _Preassigned(ws.take((pc, rc), ctype))
        pool.map_wait(lambda nd: nd.combine(), nodes)


def _bfs_leaves(tree: list[list[_Node]]) -> list[_Node]:
    return tree[-1]  # a level splits whole or not at all (_expand_tree)


def _assign_result_buffers(nodes: list[_Node], ws: Workspace) -> None:
    for nd in nodes:
        # the root's storage is the caller's ``out`` (or a fresh array) --
        # arena memory must never escape to the caller
        if nd.level > 0:
            nd.result_buf = ws.take((nd.A.shape[0], nd.B.shape[1]),
                                    np.result_type(nd.A, nd.B))


def _run_tree(
    root: _Node,
    steps: int,
    pool: WorkerPool,
    threads: int,
    hybrid: bool,
    subgroup: int | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """BFS, or HYBRID when ``hybrid``: the two differ in which leaves run
    as single-BLAS-thread tasks (all of them vs. the largest multiple of
    ``threads``) and in what happens to the rest."""
    name = "hybrid" if hybrid else "bfs"
    batch = "bfs_batch" if hybrid else "leaf"

    def phase(part: str):
        _label_tasks(pool, f"{name}.{part}")
        return telemetry.span(f"parallel.{name}.{part}")

    with phase("expand"):
        tree = _expand_tree(root, steps, pool, ws)
    leaves = _bfs_leaves(tree)
    if ws is not None:
        _assign_result_buffers(leaves, ws)
    n_bfs = len(leaves) - (len(leaves) % threads if hybrid else 0)
    bfs_part, dfs_part = leaves[:n_bfs], leaves[n_bfs:]
    # 1) perfectly balanced BFS batch, pure task parallelism
    if bfs_part:
        with phase(batch), blas.blas_threads(1):
            pool.map_wait(lambda nd: nd.leaf_multiply(), bfs_part,
                          retryable=True)
    # 2) remainder after an explicit barrier (paper's lock scheme): DFS
    if dfs_part:
        with phase("remainder"):
            if subgroup is None:
                with blas.blas_threads(threads):
                    for nd in dfs_part:
                        nd.leaf_multiply()
            else:
                # Section 4.3 alternative: disjoint groups of P' threads
                # (multiply_parallel checked that P' divides P)
                waves = threads // subgroup
                with blas.blas_threads(subgroup):
                    for i in range(0, len(dfs_part), waves):
                        pool.map_wait(
                            lambda nd: nd.leaf_multiply(),
                            dfs_part[i : i + waves],
                            retryable=True,
                        )
    with phase("combine"):
        _combine_tree(tree, pool, ws)
    return root.result


# =========================================================================
# public entry point
# =========================================================================
def multiply_parallel(
    A: np.ndarray,
    B: np.ndarray,
    algorithm: FastAlgorithm,
    steps: int = 1,
    scheme: str = "hybrid",
    pool: WorkerPool | None = None,
    threads: int | None = None,
    subgroup: int | None = None,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Parallel fast multiply ``A @ B`` (Section 4).

    ``scheme`` is one of ``dfs``, ``bfs``, ``hybrid``, ``hybrid-subgroup``;
    ``threads`` defaults to the pool's worker count; ``subgroup`` is the
    P' of the sub-group hybrid.

    ``out`` receives the product; ``workspace`` is an arena sized by
    :func:`repro.core.workspace.dfs_footprint` (dfs) or
    :func:`~repro.core.workspace.bfs_footprint` (bfs/hybrid) from which
    every temporary is drawn, so a warm ``(out, workspace)`` call performs
    no large allocations.
    """
    A, B, out = recursion._operands(A, B, out, workspace)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if subgroup is not None and scheme != "hybrid-subgroup":
        # silently running without the requested P' would mask a user
        # error the CLI and Plan validation both reject
        raise ValueError(
            f"subgroup (P') only applies to scheme 'hybrid-subgroup', "
            f"not {scheme!r}"
        )
    owns_pool = pool is None
    pool = pool or WorkerPool(threads)
    P = threads or pool.workers
    try:
        sg = None
        if scheme == "hybrid-subgroup":
            sg = subgroup if subgroup is not None else default_subgroup(P)
            if sg < 1 or P % sg:  # validated before any work runs
                raise ValueError(
                    f"subgroup (P') must divide the thread count ({P}), "
                    f"got {sg}"
                )
        with telemetry.span("parallel." + scheme, threads=P):
            if scheme == "dfs":
                _label_tasks(pool, "dfs")
                return _run_dfs(A, B, algorithm, steps, pool, P, out,
                                workspace)
            root = _Node(A, B, 0, algorithm, result_buf=out)
            return _run_tree(root, steps, pool, P, hybrid=scheme != "bfs",
                             subgroup=sg, ws=workspace)
    finally:
        if owns_pool:
            pool.shutdown()
