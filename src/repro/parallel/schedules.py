"""Shared-memory parallel fast matrix multiplication (paper Section 4).

Three schemes over the recursion tree:

- **DFS** (Section 4.1): ordinary depth-first recursion; every leaf gemm
  uses *all* P threads (vendor-BLAS parallelism) and every addition chain
  is row parallelized.  Code path identical to sequential -- the compiled
  driver, or the interpreter; needs large leaves to profit (the parallel
  dgemm ramp-up is flatter).

- **BFS** (Section 4.2): task parallelism.  The recursion tree is expanded
  level-synchronously: tasks form every node's ``S_r``/``T_r`` with its
  additions, a ``taskwait`` barrier separates levels, the ``R^L`` leaf
  products run as independent single-BLAS-thread tasks, and combine stages
  walk back up.  Needs ~R/(MN) extra memory per level and suffers load
  imbalance when P does not divide the task count.

- **HYBRID** (Section 4.3): the first ``R^L - (R^L mod P)`` leaves run BFS
  style (perfectly load balanced), the remaining ``R^L mod P`` run DFS
  style with all threads *after* the BFS batch completes (the paper's
  explicit synchronization that avoids oversubscription).  The alternative
  sub-group variant assigns the remainder to disjoint groups of P' < P
  threads; both are implemented.

Dynamic peeling applies at every node: the boundary fix-ups
(:func:`repro.util.matrices.peel_fixup`) run during its combine stage --
two thin products, and the peeled inner-dimension strip, which the
compiled ``form_C`` adds as it stores each row and the NumPy nodes add in
fixed-size chunks through their combine scratch.  No buffer is
core-size.

**Which kernels form the chains** is decided per call by
:func:`repro.codegen.cbackend.chains_fused` -- it is not a plan dimension
and nothing selects it.  Float64 operands the compiled kernels can address
in place, on a host where the algorithm's module loads, get the fused C
kernels (``form_S``/``form_T``/``form_C``) over row ranges, one pool task
per range (ctypes releases the GIL; a range recomputes its rows from the
kernel's inputs, so the tasks are retryable): DFS is the compiled driver
with three fan-outs per level, and a tree level is ``form_S`` + ``form_T``
per (node, row range) on the way down and ``form_C`` per (node, row range)
on the way up, with enough ranges that every level -- the root included --
has at least P tasks.  Everything else (float32, exotic strides, no
compiler, a compile that fails at the call) is formed by the NumPy
row-slab adders: one fan-out per chain under DFS, one task per child and
per combine in the tree.  The arithmetic per element is the same sequence
either way, so both agree with the interpreter bit for bit on the +-1
catalog entries.

Every scheme accepts ``out=`` and ``workspace=`` (a
:class:`repro.core.workspace.Workspace`, in which the call reserves
:func:`parallel_footprint` bytes for the kernels it picked).  With the
compiled kernels a DFS level, and every node of the tree, holds one S slab
and one T slab (a row per non-alias chain; alias chains are views of the
node's own blocks) and its products (one contiguous slab per tree node,
which ``form_C`` reads and the children write as their results).  With
the NumPy adders DFS reuses one ``S``/``T``/``M_r`` triple per level and the
tree draws a buffer per child from per-level pools whose sizes follow the
Section 4.2 memory formula.  Buffers are preassigned *before* tasks fan out
(deterministic, no allocator in any task body), so a warm call performs no
large allocations.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np

from repro.codegen import cbackend
from repro.core.algorithm import FastAlgorithm
from repro.core import recursion
from repro.core.recursion import accumulate_products, combine_blocks
from repro.core.workspace import (
    Workspace,
    bfs_footprint,
    cbackend_footprint,
    dfs_footprint,
    needs_scratch,
)
from repro.obs import telemetry
from repro.parallel import blas
from repro.parallel.gemm import dgemm
from repro.parallel.pool import (
    WorkerPool,
    _row_slabs,
    parallel_axpy,
    parallel_combine,
)
from repro.util.matrices import (
    block_views,
    peel_fixup,
    peel_split,
    strip_scratch_bytes,
)

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
# DFS: the sequential recursion with every addition and gemm on all threads
# =========================================================================
def _run_dfs(A, B, alg: FastAlgorithm, steps: int, pool: WorkerPool,
             threads: int, out, ws: Workspace | None,
             cc: "cbackend.CompiledChains | None") -> np.ndarray:
    """Section 4.1: the same routine as the sequential code, "matrix
    additions are trivially parallelized" over rows and the leaves and
    peeling fix-ups run a ``threads``-wide gemm.

    With compiled kernels that routine is the compiled driver
    (:meth:`CompiledChains._recurse`) and a level is three fan-outs --
    ``form_S``, ``form_T``, ``form_C``, one task per row range; without
    them it is the interpreter (:func:`repro.core.recursion._recurse`)
    with the pool's row-slab adders, one fan-out per chain."""
    if cc is not None:
        def sweep(kernel, nrows: int) -> None:
            # a range is recomputed from the kernel's inputs: retryable
            pool.map_wait(lambda sl: kernel(sl.start, sl.stop),
                          _row_slabs(nrows, threads), retryable=True)

        C = out if out is not None else np.empty((A.shape[0], B.shape[1]))
        with blas.blas_threads(threads):
            cc._recurse(A, B, steps, C, ws, sweep)
        return C
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
class _Node:
    """One subproblem in the recursion tree.

    A level is expanded and, on the way back up, combined in the same
    three moves whichever kernels form the chains: :meth:`split` carves
    every buffer the node's children and its own combine will use
    (serially -- no task body touches the bump pointer) and returns the
    work items whose :meth:`form` tasks fill the children's operands;
    :meth:`assemble` tasks write the core of C from the children's
    products; :meth:`fixup` adds what dynamic peeling stripped.  This
    class forms its chains with the serial NumPy adders, one task per
    child and one per combine (Section 4.2: the additions belong to the
    task); :class:`_FusedNode` with the compiled kernels over row ranges.
    """

    A: np.ndarray
    B: np.ndarray
    level: int
    alg: FastAlgorithm
    children: list["_Node"] = dataclasses.field(default_factory=list)
    result: np.ndarray | None = None
    #: preassigned result storage (arena view, or the caller's ``out``)
    result_buf: np.ndarray | None = None
    # captured at expansion: the evenly divisible cores A11 and B11, and
    # the peeled inner strip (A12, B21)
    _peel: tuple | None = None
    # (S_buf, T_buf, scratch, result_buf) per rank, preassigned by split
    _child_bufs: list | None = None
    # combine-stage scratch: W coefficients outside {0, +-1} scale in it,
    # then the peeled inner strip is added through it
    _scratch: np.ndarray | None = None

    def core_shape(self) -> tuple[int, int, int]:
        """``(pc, qc, rc)`` of the evenly divisible core."""
        A11, B11, _ = self._peel
        return A11.shape + B11.shape[1:]

    def _peel_core(self) -> tuple[int, int, int]:
        """Capture the peeling views; returns the block dims ``(bp, bq,
        bn)`` the children inherit."""
        m, k, n = self.alg.base_case
        A11, A12 = peel_split(self.A, m, k)[:2]
        B11, _, B21, _ = peel_split(self.B, k, n)
        self._peel = (A11, B11, (A12, B21))
        pc, qc, rc = self.core_shape()
        return pc // m, qc // k, rc // n

    # ------------------------------------------------------------ expansion
    def split(self, ws: Workspace | None, parts: int) -> list:
        ctype = np.result_type(self.A, self.B)
        bp, bq, bn = self._peel_core()
        R = self.alg.rank
        self.children = [None] * R  # type: ignore[list-item]
        self._child_bufs = [(None, None, None, None)] * R
        if ws is not None:
            uv_scratch, w_scratch = _scratch_needs(self.alg)
            nbytes = max(
                w_scratch * bp * bn * ctype.itemsize,
                strip_scratch_bytes(self.A.shape[0], *self.B.shape,
                                    self.alg.base_case, ctype.itemsize))
            if nbytes:
                self._scratch = ws.take_scratch(nbytes)
            for rr in range(R):
                S_buf = ws.take((bp, bq), self.A.dtype)
                T_buf = ws.take((bq, bn), self.B.dtype)
                scr = None
                if uv_scratch:
                    scr = ws.take_scratch(max(S_buf.nbytes, T_buf.nbytes))
                self._child_bufs[rr] = (S_buf, T_buf, scr,
                                        ws.take((bp, bn), ctype))
        return list(range(R))

    def form(self, rr: int) -> None:
        """Task body: form (S_r, T_r) with serial additions."""
        m, k, n = self.alg.base_case
        S_buf, T_buf, scr, M_buf = self._child_bufs[rr]
        S = combine_blocks(block_views(self._peel[0], m, k),
                           self.alg.U[:, rr], out=S_buf, scratch=scr)
        T = combine_blocks(block_views(self._peel[1], k, n),
                           self.alg.V[:, rr], out=T_buf, scratch=scr)
        self.children[rr] = _Node(S, T, self.level + 1, self.alg,
                                  result_buf=M_buf)

    # --------------------------------------------------------------- leaves
    def leaf_multiply(self) -> None:
        self.result = np.matmul(self.A, self.B, out=self.result_buf)

    # -------------------------------------------------------------- combine
    def _destination(self) -> None:
        if self.result_buf is None:  # a root without ``out``
            self.result_buf = np.empty(
                (self.A.shape[0], self.B.shape[1]),
                dtype=np.result_type(self.A, self.B))

    def assemble_items(self, parts: int) -> list:
        """Serial prelude of :meth:`assemble`; its work items."""
        self._destination()
        return [None]

    def assemble(self, _item) -> None:
        """Task body: the core of C from the children's products."""
        pc, _, rc = self.core_shape()
        m, _, n = self.alg.base_case
        accumulate_products(
            block_views(self.result_buf[:pc, :rc], m, n), self.alg,
            ((rr, child.result) for rr, child in enumerate(self.children)),
            scratch=self._scratch)

    def peeled(self) -> bool:
        return (self.A.shape + self.B.shape[1:]) != self.core_shape()

    def fixup(self) -> None:
        """Task body: the boundary contributions of dynamic peeling."""
        peel_fixup(self.result_buf, self.A, self.B, self.alg.base_case,
                   np.matmul, self._scratch)

    def finish(self) -> None:
        self.result = self.result_buf
        self.children = []  # release child references promptly


@dataclasses.dataclass
class _FusedNode(_Node):
    """A node whose chains the compiled kernels form (float64 throughout).

    Its children's operands live in one S and one T slab (``slots`` rows,
    not ``R``: alias chains are views of this node's own blocks) and
    their products in one contiguous ``(R, bp * bn)`` slab -- the layout
    of the sequential compiled driver, per node.  Expansion is ``form_S``
    + ``form_T`` and the combine ``form_C``, each per row range, so a
    level has at least ``threads`` tasks however few nodes it has.
    """

    cc: "cbackend.CompiledChains | None" = None
    # the S, T and product slabs (the kernels hold raw pointers into them)
    _slabs: tuple | None = None
    # form_C's row pointers into the product slab
    _products: object = None
    # (bp, bq, bn): the block dimensions the children inherit
    _blk: tuple | None = None

    def split(self, ws: Workspace | None, parts: int) -> list:
        cc, R = self.cc, self.alg.rank
        self._blk = bp, bq, bn = self._peel_core()
        A11, B11, _ = self._peel
        s_rows, t_rows, _ = cc.slab_rows()
        take = ws.take if ws is not None else np.empty
        Sslab = take((s_rows, bp * bq), np.float64)
        Tslab = take((t_rows, bq * bn), np.float64)
        Mslab = take((R, bp * bn), np.float64)
        self._slabs = (Sslab, Tslab, Mslab)
        self._products = cc.product_rows(Mslab)
        self.children = [
            _FusedNode(cc.operand("s", rr, Sslab, A11, bp, bq),
                       cc.operand("t", rr, Tslab, B11, bq, bn),
                       self.level + 1, self.alg,
                       result_buf=Mslab[rr].reshape(bp, bn), cc=cc)
            for rr in range(R)]
        return list(itertools.zip_longest(_row_slabs(bp, parts),
                                          _row_slabs(bq, parts)))

    def form(self, item) -> None:
        """Task body: one row range of every S chain and of every T chain."""
        (bp, bq, bn), (Sslab, Tslab, _) = self._blk, self._slabs
        s_rows, t_rows = item
        if s_rows is not None:
            self.cc.form_S(self._peel[0], bp, bq, Sslab,
                           s_rows.start, s_rows.stop)
        if t_rows is not None:
            self.cc.form_T(self._peel[1], bq, bn, Tslab,
                           t_rows.start, t_rows.stop)

    def assemble_items(self, parts: int) -> list:
        self._destination()
        return _row_slabs(self._blk[0], parts)

    def assemble(self, rows: slice) -> None:
        """Task body: one row range of every block of the core of C, the
        peeled inner strip included."""
        bp, _, bn = self._blk
        self.cc.form_C(self._products, bp, bn, self.result_buf, None,
                       rows.start, rows.stop, strip=self._peel[2])

    def fixup(self) -> None:
        """Task body: the thin products; ``form_C`` added the strip."""
        peel_fixup(self.result_buf, self.A, self.B, self.alg.base_case,
                   np.matmul, strip=False)


def _scratch_needs(alg: FastAlgorithm) -> tuple[bool, bool]:
    """Whether ``alg``'s (U or V, W) carry coefficients outside {0, +-1},
    i.e. whether the NumPy chains need scaling scratch to stay
    allocation-free.  Every node of every call asks, so it is kept on the
    algorithm."""
    return alg.memo("_scratch_needs", lambda a: (
        needs_scratch(a.U) or needs_scratch(a.V), needs_scratch(a.W)))


def _fan_out(pool: WorkerPool, work: list[tuple], retryable: bool) -> None:
    """One level-wide barrier over ``(bound task body, item)`` pairs."""
    pool.map_wait(lambda wi: wi[0](wi[1]), work, retryable=retryable)


def _expand_tree(
    root: _Node,
    levels: int,
    pool: WorkerPool,
    ws: Workspace | None = None,
    threads: int | None = None,
) -> list[list[_Node]]:
    """Level-synchronous expansion with a taskwait barrier per level.

    Every node of a level has the same shape (children inherit one peeled
    core), so a level splits whole or not at all and the leaves are
    exactly ``tree[-1]``.  Each level's buffers are carved *serially* here
    (:meth:`_Node.split`) before the form tasks fan out -- the per-level
    pools of Section 4.2, assigned deterministically so no task body ever
    touches the bump pointer.
    """
    threads = threads or pool.workers
    policy = recursion.CutoffPolicy(max_steps=levels)
    m, k, n = root.alg.base_case
    tree: list[list[_Node]] = [[root]]
    for level in range(levels):
        nodes = tree[-1]
        head = nodes[0]
        if not policy.should_recurse(level, *head.A.shape, head.B.shape[1],
                                     m, k, n):
            break  # too small: the level stays leaves, multiplied directly
        parts = -(-threads // len(nodes))
        # forming a child recomputes its operands from the parent's into
        # preassigned buffers -- idempotent, so retryable
        _fan_out(pool, [(nd.form, item) for nd in nodes
                        for item in nd.split(ws, parts)], retryable=True)
        tree.append([child for nd in nodes for child in nd.children])
    return tree


def _combine_tree(tree: list[list[_Node]], pool: WorkerPool,
                  threads: int) -> None:
    """Walk back up: per level, assemble every core of C from its
    children's products, then -- behind a barrier, they accumulate into
    those cores -- run the peeling fix-ups of the nodes that have any."""
    for nodes in reversed(tree[:-1]):
        parts = -(-threads // len(nodes))
        # assembling overwrites the core from the products: retryable;
        # a fix-up accumulates into it: not
        _fan_out(pool, [(nd.assemble, item) for nd in nodes
                        for item in nd.assemble_items(parts)], retryable=True)
        pool.map_wait(lambda nd: nd.fixup(),
                      [nd for nd in nodes if nd.peeled()])
        for nd in nodes:
            nd.finish()


def _bfs_leaves(tree: list[list[_Node]]) -> list[_Node]:
    return tree[-1]  # a level splits whole or not at all (_expand_tree)


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
        tree = _expand_tree(root, steps, pool, ws, threads)
    leaves = _bfs_leaves(tree)
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
        _combine_tree(tree, pool, threads)
    return root.result


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
) -> int:
    """Arena bytes one :func:`multiply_parallel` call draws.

    The layout follows the kernels that form the chains (``fused``;
    default: what :func:`repro.codegen.cbackend.chains_fused` says for
    these dtypes).  Compiled kernels fill whole slabs --
    :func:`repro.core.workspace.cbackend_footprint`, one set per level for
    ``dfs``, one per node for the tree schemes; the NumPy adders use one
    S/T/M_r triple per level (:func:`~repro.core.workspace.dfs_footprint`)
    resp. a buffer per child (:func:`~repro.core.workspace.bfs_footprint`).
    """
    if fused is None:
        fused = cbackend.chains_fused(dtype_a, dtype_b)
    if fused:
        return cbackend_footprint(algorithm, False, (p, q, r), dtype_a,
                                  steps, dtype_b, tree=scheme != "dfs")
    if scheme == "dfs":
        return dfs_footprint([algorithm.base_case] * steps, p, q, r,
                             dtype_a, dtype_b, algorithms=[algorithm] * steps)
    return bfs_footprint(algorithm, steps, p, q, r, dtype_a, dtype_b)


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

    Which kernels form the chains is decided here, per call, from what
    the call can observe (:func:`repro.codegen.cbackend.chains_fused`):
    float64 operands the compiled kernels can address in place, and a
    module that loads for ``algorithm``, get the fused C kernels over row
    ranges; anything else the NumPy adders -- also when the compile fails
    at this very call (counted in ``cbackend.fallbacks``, warned once per
    algorithm).

    ``out`` receives the product; every temporary is drawn from
    ``workspace``, in which the call reserves :func:`parallel_footprint`
    bytes for the kernels it picked whatever the caller sized it for (an
    arena laid out for the slabs serves the adders after a failed
    compile; Section 4.1's one triple per level grows to hold the slabs),
    so a warm ``(out, workspace)`` call performs no large allocations.
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
    fused = cbackend.chains_fused(A.dtype, B.dtype, (A, B, out))
    cc = cbackend.serving_chains(algorithm) if fused else None
    if workspace is not None:
        # the caller sized the arena from (plan, shape, dtypes); which
        # kernels run was decided just now, from the operands and the
        # compile: the layout reserved is theirs
        workspace.reserve(parallel_footprint(
            algorithm, steps, scheme, A.shape[0], *B.shape, A.dtype,
            B.dtype, fused=cc is not None))
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
        with telemetry.span("parallel." + scheme, threads=P,
                            chains="numpy" if cc is None else "fused"):
            if scheme == "dfs":
                _label_tasks(pool, "dfs")
                return _run_dfs(A, B, algorithm, steps, pool, P, out,
                                workspace, cc)
            node = (_Node if cc is None
                    else functools.partial(_FusedNode, cc=cc))
            root = node(A, B, 0, algorithm, result_buf=out)
            return _run_tree(root, steps, pool, P, hybrid=scheme != "bfs",
                             subgroup=sg, ws=workspace)
    finally:
        if owns_pool:
            pool.shutdown()
