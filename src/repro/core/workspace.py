"""Workspace arenas: zero-allocation steady state for the hot paths.

The paper's shared-memory implementation (Section 4) wins because the
temporaries of a fast algorithm are managed deliberately: DFS reuses one
``S``/``T``/``M_r`` buffer set per recursion level, while BFS pays a known
``~R/(MN)`` extra-memory factor per level for task parallelism.  The
executors in this repository originally allocated fresh arrays for every
rank of every level on every call; for the repeated mid-size products the
tuner serves, allocator traffic and page faulting eat a large slice of the
fast-algorithm advantage.  The *exact* buffer footprint of an (algorithm,
steps, shape, dtype, scheme) plan is computed up front and reserved
(:meth:`Workspace.reserve`) in the calling thread's one :class:`Workspace`,
which hands out reusable views and is as large as the largest plan the
thread has served, so a warm ``repro.matmul(A, B, out=C)`` performs no
large allocations at all.

Footprint formulas (derivations follow the paper's Sections 4.1/4.2):

**DFS / sequential** (Section 4.1).  At recursion level ``l`` the core
problem has dimensions ``(p_l, q_l, r_l)`` with ``p_{l+1} = floor(p_l'/M)``
where ``p_l' = p_l - (p_l mod M)`` is the peeled core (Section 3.5), and
similarly for ``q`` (by ``K``) and ``r`` (by ``N``).  Depth-first order
touches one rank at a time, so a single ``S`` (``p_{l+1} x q_{l+1}``),
``T`` (``q_{l+1} x r_{l+1}``) and ``M_r`` (``p_{l+1} x r_{l+1}``) buffer
per level is reused across all ``R`` ranks *and* across sibling subtrees::

    W_dfs = sum_{l=1}^{L} (p_l q_l + q_l r_l + p_l r_l + max-block scratch)

This is the paper's observation that DFS needs no extra memory beyond one
temporary set per level.  The scratch term holds ``c * X`` products for
coefficients outside {0, +-1} so the addition chains run fused
(``np.multiply``/``np.add`` with ``out=``) with no hidden temporaries.

**BFS / hybrid** (Section 4.2).  Level-synchronous expansion materializes
*every* ``(S_r, T_r)`` pair of a level at once: level ``l`` holds
``R^l`` nodes of dimensions ``(p_l, q_l, r_l)``, i.e. per additional level
the ``S``/``T`` pools grow by a factor ``R/(MK)`` resp. ``R/(KN)`` of the
input and the result pool by ``R/(MN)`` of the output -- the paper's
"extra memory per level" argument::

    W_bfs = sum_{l=1}^{L} R^l (p_l q_l + q_l r_l)          # S/T pools
          + sum_{l=1}^{L} R^l (p_l r_l)                    # result pools

The paper frees each level's pool as the combine sweep walks back up the
tree; an arena instead holds the full-tree footprint for the whole call
and keeps it for the thread's next one, whichever plan that runs --
steady-state reuse across calls supersedes intra-call freeing, and the
geometric series is dominated by the deepest level
anyway.  Per-level pools are laid out contiguously in expansion order, so
the combine sweep still releases them level by level logically (the bump
pointer rewinds wholesale at the next ``reset``).

All three footprints (:func:`dfs_footprint`, :func:`bfs_footprint`,
:func:`cbackend_footprint`) walk the levels with one iterator,
:func:`_split_levels`, which asks the executors' own
question -- :func:`repro.core.recursion.should_split`, i.e.
``CutoffPolicy.should_recurse`` -- whether a level splits.  Dynamic peeling
costs an arena next to nothing: the one boundary fix-up every executor
calls (:func:`repro.util.matrices.peel_fixup`) writes its thin products
straight into ``C``, and where the inner dimension peels the NumPy
executors add that strip through one fixed-size chunk
(:func:`repro.util.matrices.strip_scratch_bytes`, at most 256 KiB) while
the compiled kernels add it inside ``form_C`` and take nothing -- no
buffer grows with the core.  Peeling, early termination
(a block dimension dropping below the cutoff) and composed per-level
schedules are therefore accounted exactly rather than bounded, and an
executor and its arena cannot disagree on where the recursion stops.  What
differs between the three is only what one level holds.

The **compiled chain driver** has a third memory shape (float64 slabs
filled by one C call per side, the products of a level live until
``form_C``) -- :func:`cbackend_footprint`.

Which formula sizes a tuner plan is decided in exactly one place,
:func:`repro.tuner.dispatch.plan_footprint` (scheme, backend ->
bytes, 0 for plain BLAS): every reservation and every measurement arena
comes from it, and a callee that runs another path than its caller sized
for (strides or a failed compile decide that) reserves its own.  A parallel
scheme is sized for the kernels its schedule will form the chains with
(:func:`repro.parallel.schedules.parallel_footprint`): the compiled ones
use the slab layout -- :func:`cbackend_footprint`, per level for DFS, per
node with ``tree=True`` -- and the NumPy adders :func:`dfs_footprint` /
:func:`bfs_footprint`.

The arena is not thread-safe for concurrent ``take`` calls; the parallel
schedules preassign every buffer *before* fanning tasks out, which is also
what makes the assignment deterministic.  If a caller outgrows its
reservation (e.g. a custom cutoff policy recursing deeper than the plan
declared), ``take`` degrades to a plain allocation and counts it in
``overflow_allocations`` instead of failing.
"""

from __future__ import annotations

import contextlib
import math
import tracemalloc
from typing import Iterable, Sequence

import numpy as np

from repro.guard import faults as _faults
from repro.obs import telemetry
from repro.util.matrices import strip_scratch_bytes

#: byte alignment of every handed-out buffer (one cache line)
ALIGNMENT = 64

#: slack added per expected ``take`` to absorb alignment rounding
_ALIGN_SLACK = ALIGNMENT


def _prod(shape: Iterable[int]) -> int:
    return math.prod(int(s) for s in shape)


def _align_up(n: int) -> int:
    return -(-n // ALIGNMENT) * ALIGNMENT


class Workspace:
    """A bump-pointer arena over one contiguous buffer that only grows.

    :meth:`reserve` sizes it for the call about to run; ``take(shape,
    dtype)`` returns a C-contiguous, cache-line-aligned view;
    ``mark()``/``release(mark)`` give stack-discipline reuse (the DFS
    recursion releases a level's buffers when the subtree returns);
    ``reset()`` rewinds everything at the start of a call.  Requests beyond
    the reservation fall back to ``np.empty`` (counted, never fatal).
    """

    def __init__(self, nbytes: int):
        self._buf = np.empty(0, dtype=np.uint8)
        self.overflow_allocations = 0
        self.max_mark_depth = 0
        #: calls served since the buffer was (re)allocated: 1 means the
        #: caller paid for the memory, more that it found it warm
        self.uses = 0
        self.reserve(nbytes)

    def reserve(self, nbytes: int) -> None:
        """Make room for a call that draws ``nbytes``, and rewind.

        A smaller buffer is replaced by one of exactly ``nbytes`` (dropped
        first: the peak is the larger, not the sum; nothing is copied, an
        arena carries no state between calls), a larger one is kept.
        Either way ``nbytes`` is the limit past which ``take`` counts an
        overflow, so a formula that undersizes its executor shows whatever
        ran in this arena before.
        """
        #: the current reservation
        self.nbytes = max(int(nbytes), ALIGNMENT)
        if self._buf.nbytes < self.nbytes:
            self._buf = np.empty(0, dtype=np.uint8)
            self._buf = np.empty(self.nbytes, dtype=np.uint8)
            # absolute alignment: offset 0 of the arena is cache-line aligned
            self._base = (-self._buf.ctypes.data) % ALIGNMENT
            self.uses = 0
            telemetry.incr("workspace.grows")
        self.high_water = 0
        self.reset()

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Rewind the bump pointer; every prior view becomes reusable."""
        self._top = 0
        self.mark_depth = 0

    def mark(self) -> int:
        self.mark_depth += 1
        if self.mark_depth > self.max_mark_depth:
            self.max_mark_depth = self.mark_depth
        return self._top

    def release(self, mark: int) -> None:
        self._top = mark
        if self.mark_depth > 0:
            self.mark_depth -= 1

    def stats(self) -> dict:
        """Arena health as one JSON-ready dict -- what the dispatch layer's
        telemetry gauges publish per call: the reservation, the peak bytes
        carved since it was made, current/deepest mark nesting, and the
        heap-overflow count."""
        return {
            "nbytes": self.nbytes,
            "high_water": self.high_water,
            "mark_depth": self.mark_depth,
            "max_mark_depth": self.max_mark_depth,
            "overflow_allocations": self.overflow_allocations,
        }

    # ------------------------------------------------------------- hand-out
    def _carve(self, nbytes: int, *what) -> np.ndarray:
        """``nbytes`` of the arena -- of the heap (counted) once it is full."""
        if _faults.active and _faults.should_fire("workspace.overflow"):
            # forced overflow *with* a failing heap fallback: arena
            # exhaustion under true memory pressure, the case the graceful
            # everyday overflow below can't exercise
            self.overflow_allocations += 1
            raise MemoryError("injected: workspace.overflow taking "
                              + " ".join(map(str, what)))
        start = _align_up(self._top)
        end = start + nbytes
        if end + self._base > self.nbytes:
            self.overflow_allocations += 1
            return np.empty(nbytes, dtype=np.uint8)
        self._top = end
        if end > self.high_water:
            self.high_water = end
        return self._buf[self._base + start : self._base + end]

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous ``shape``/``dtype`` view of the arena."""
        dtype = np.dtype(dtype)
        raw = self._carve(_prod(shape) * dtype.itemsize, shape, dtype)
        return raw.view(dtype).reshape(shape)

    def take_scratch(self, nbytes: int) -> np.ndarray:
        """An untyped byte buffer (viewed per use via :func:`scratch_view`)."""
        return self._carve(int(nbytes), nbytes, "scratch bytes")

    # ------------------------------------------------------------ factories
    @classmethod
    def for_recursion(
        cls,
        base_cases: Sequence[tuple[int, int, int]],
        p: int,
        q: int,
        r: int,
        dtype_a="float64",
        dtype_b=None,
        algorithms: Sequence | None = None,
    ) -> "Workspace":
        """Arena for the DFS/sequential executors (Section 4.1 footprint).

        ``base_cases`` is one ``(M, K, N)`` per recursion level -- repeat a
        single algorithm's base case ``steps`` times, or pass a composed
        schedule's per-level cases.  Passing the matching ``algorithms``
        lets the footprint drop the per-level scratch for coefficient
        matrices over {0, +-1} (most of the catalog), which the executors
        never take.
        """
        nbytes = dfs_footprint(base_cases, p, q, r, dtype_a, dtype_b,
                               algorithms=algorithms)
        return cls(nbytes)


# ---------------------------------------------------------------------------
# scratch views and out= validation (shared by all three execution layers)
# ---------------------------------------------------------------------------
def scratch_view(scratch: np.ndarray, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Reinterpret the head of a byte ``scratch`` buffer as ``shape``/``dtype``."""
    dtype = np.dtype(dtype)
    nbytes = _prod(shape) * dtype.itemsize
    return scratch[:nbytes].view(dtype).reshape(shape)


def axpy(out: np.ndarray, x: np.ndarray, alpha: float,
         scratch: np.ndarray | None = None) -> None:
    """``out += alpha * x`` with the fewest temporaries numpy allows.

    ``scratch`` (a byte buffer at least ``out.nbytes`` long, typically an
    arena view) absorbs the ``alpha * x`` product of general coefficients,
    making the update allocation-free; without it that branch falls back to
    one temporary.  ``alpha`` is coerced to python float so NEP 50 does not
    upcast float32 operands through a float64 numpy scalar.
    """
    alpha = float(alpha)
    if alpha == 1.0:
        np.add(out, x, out=out)
    elif alpha == -1.0:
        np.subtract(out, x, out=out)
    elif scratch is not None:
        t = scratch_view(scratch, out.shape, out.dtype)
        np.multiply(x, alpha, out=t)
        np.add(out, t, out=out)
    else:
        out += alpha * x


def combine_into(out: np.ndarray, blocks: Sequence[np.ndarray], coeffs,
                 scratch: np.ndarray | None = None) -> None:
    """``out = sum_i coeffs[i] * blocks[i]`` skipping zeros, fused into
    ``out`` (zeros when every coefficient is zero): the first term is
    copied or scaled in, the rest accumulate through :func:`axpy`.  The
    serial chains and the pool's row-slab chains are both this body."""
    started = False
    for x, c in zip(blocks, coeffs):
        c = float(c)
        if c == 0.0:
            continue
        if started:
            axpy(out, x, c, scratch)
            continue
        started = True
        if c == 1.0:
            np.copyto(out, x)
        else:
            np.multiply(x, c, out=out)
    if not started:
        out[:] = 0.0


def needs_scratch(coeffs: np.ndarray) -> bool:
    """Whether a coefficient matrix forces ``c * X`` scaling temporaries.

    Chains over {0, +-1} lower to pure ``np.add``/``np.subtract`` and never
    need one; anything else needs a scratch buffer to stay allocation-free.
    """
    c = np.asarray(coeffs)
    return not bool(np.all((c == 0.0) | (c == 1.0) | (c == -1.0)))


def check_out(out: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Validate an ``out=`` destination for ``A @ B``.

    Raises ``ValueError`` on wrong shape/dtype, a read-only destination, or
    an ``out`` that (possibly) overlaps ``A`` or ``B`` -- the executors
    write ``C`` blocks while ``A``/``B`` blocks are still being read, so
    aliasing would silently corrupt the product.
    """
    if not isinstance(out, np.ndarray) or out.ndim != 2:
        raise ValueError("out must be a 2-D ndarray")
    expect = (A.shape[0], B.shape[1])
    if out.shape != expect:
        raise ValueError(f"out has shape {out.shape}, expected {expect}")
    dtype = np.result_type(A, B)
    if out.dtype != dtype:
        raise ValueError(f"out has dtype {out.dtype}, expected {dtype}")
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    if np.may_share_memory(out, A) or np.may_share_memory(out, B):
        raise ValueError("out must not overlap A or B")
    return out


# ---------------------------------------------------------------------------
# footprint formulas (Sections 4.1 / 4.2)
# ---------------------------------------------------------------------------
def _split_levels(base_cases: Sequence[tuple[int, int, int]],
                  p: int, q: int, r: int):
    """The level loop every footprint shares with every executor.

    Yields ``(level index, (m, k, n), (p, q, r), (bp, bq, br))`` -- the
    base case, the dimensions the level receives and the block dimensions
    its children inherit (peeled core / base case, Section 3.5) -- for
    each level that splits.  Whether it does is the executors' own
    question, :func:`repro.core.recursion.should_split`; a level that does
    not is *skipped with the dimensions unchanged*, because
    ``multiply_schedule`` falls through to the next level's algorithm on
    the full subproblem (for one repeated base case that is the same as
    stopping).
    """
    # recursion.py imports this module, not vice versa
    from repro.core.recursion import should_split

    for lvl, (m, k, n) in enumerate(base_cases):
        if should_split(1, p, q, r, m, k, n):
            blk = (p // m, q // k, r // n)
            yield lvl, (m, k, n), (p, q, r), blk
            p, q, r = blk


def _itemsizes(dtype_a, dtype_b) -> tuple[int, int, int]:
    """Item sizes of ``A``, ``B`` and ``np.result_type(A, B)``."""
    a = np.dtype(dtype_a)
    b = np.dtype(dtype_b if dtype_b is not None else dtype_a)
    return a.itemsize, b.itemsize, np.result_type(a, b).itemsize


class _Tally:
    """Prices arena takes of ``itemsize``-byte elements: ``tally(n, count)``
    is the aligned bytes of ``count`` equal takes of ``n`` elements, and
    :meth:`total` adds one alignment slack per take priced so far (rounding
    the bump pointer up can cost that much)."""

    def __init__(self, itemsize: int = 1) -> None:
        self.itemsize = itemsize
        self.takes = 0

    def __call__(self, nelems: int, count: int = 1) -> int:
        if nelems <= 0:
            return 0
        self.takes += count
        return count * _align_up(int(nelems) * self.itemsize)

    def total(self, nbytes: int) -> int:
        return nbytes + self.takes * _ALIGN_SLACK + ALIGNMENT


def dfs_level_shapes(
    base_cases: Sequence[tuple[int, int, int]], p: int, q: int, r: int
) -> list[tuple[int, int, int]]:
    """Per-level ``(S rows, S cols == T rows, T cols)`` of the DFS recursion
    (sequential or parallel): the block dimensions of :func:`_split_levels`."""
    return [blk for *_, blk in _split_levels(base_cases, p, q, r)]


def dfs_footprint(
    base_cases: Sequence[tuple[int, int, int]],
    p: int,
    q: int,
    r: int,
    dtype_a="float64",
    dtype_b=None,
    algorithms: Sequence | None = None,
) -> int:
    """Exact DFS/sequential arena bytes: per level one S + T + M_r + scratch
    (+ the strip chunk at levels where the inner dimension peels).

    With ``algorithms`` (one per level, matching ``base_cases``), the
    scratch term is only charged at levels whose U/V/W carry coefficients
    outside {0, +-1} -- the executors take no scratch otherwise.
    """
    isa, isb, isc = _itemsizes(dtype_a, dtype_b)
    take = _Tally()
    total = 0
    for lvl, base, dims, blk in _split_levels(base_cases, p, q, r):
        sp, sq, sr = blk
        triple = (sp * sq * isa, sq * sr * isb, sp * sr * isc)  # S, T, M_r
        total += sum(take(nbytes) for nbytes in triple)
        alg = algorithms[lvl] if algorithms is not None else None
        if alg is None or (needs_scratch(alg.U) or needs_scratch(alg.V)
                           or needs_scratch(alg.W)):
            total += take(max(triple))
        total += take(strip_scratch_bytes(*dims, base, isc))
    return take.total(total)


def bfs_level_shapes(
    base_case: tuple[int, int, int],
    rank: int,
    steps: int,
    p: int,
    q: int,
    r: int,
) -> list[tuple[int, tuple[int, int, int]]]:
    """Per expansion level: ``(node count, child (sp, sq, sr))``.

    Every node of a level shares one shape (children of a node inherit the
    same peeled core), so the level-synchronous tree is fully described by
    ``steps`` (count, shape) pairs -- count grows by ``R`` per level.
    """
    shapes = dfs_level_shapes([base_case] * steps, p, q, r)
    return [(rank ** (i + 1), blk) for i, blk in enumerate(shapes)]


def bfs_footprint(
    algorithm,
    steps: int,
    p: int,
    q: int,
    r: int,
    dtype_a="float64",
    dtype_b=None,
) -> int:
    """Exact BFS/hybrid arena bytes (Section 4.2's per-level pools).

    Level ``l`` contributes ``R^l`` S/T pairs (the node operands) plus
    ``R^l`` result buffers (leaf products at the deepest level, combined
    ``C`` blocks above it).  The root result is always excluded: it is
    either the caller's ``out`` or a per-call fresh allocation (arena
    memory must never be handed back to the caller).
    """
    isa, isb, isc = _itemsizes(dtype_a, dtype_b)
    uv_scratch = needs_scratch(algorithm.U) or needs_scratch(algorithm.V)
    w_scratch = needs_scratch(algorithm.W)
    take = _Tally()
    total = 0
    count = 1
    for _, base, dims, blk in _split_levels([algorithm.base_case] * steps,
                                            p, q, r):
        sp, sq, sr = blk
        # each of the level's parents combines through one scratch: for
        # general W coefficients sized to its C block, for a peeled inner
        # dimension the strip chunk
        total += take(max(w_scratch * sp * sr * isc,
                          strip_scratch_bytes(*dims, base, isc)), count)
        count *= algorithm.rank
        total += take(sp * sq * isa, count) + take(sq * sr * isb, count)
        if uv_scratch:
            total += take(max(sp * sq * isa, sq * sr * isb), count)
        total += take(sp * sr * isc, count)                # result pool
    return take.total(total)


def cbackend_footprint(
    algorithm,
    cse: bool,
    shape: tuple[int, int, int],
    dtype_a="float64",
    steps: int = 1,
    dtype_b=None,
    tree: bool = False,
) -> int:
    """Arena bytes for the compiled C chain kernels: the sequential driver
    (``backend="compiled"``), the parallel DFS that fans the same driver's
    kernels out over row ranges, and -- with ``tree`` -- the BFS/hybrid
    task tree when its chains are formed by those kernels.

    Mirrors :meth:`repro.codegen.cbackend.CompiledChains.multiply`, whose
    memory shape differs from the interpreter's:

    - every slot is **float64** regardless of the operand dtypes (the C
      kernels compute in double); non-double operands draw one conversion
      copy each, and a non-double result draws a double accumulation
      buffer that is cast once on exit;
    - ``form_S``/``form_T`` fill whole **slab arrays** (one row per CSE
      definition + non-alias chain), so all slab rows of a level are live
      at once, alongside the products ``form_C`` reads after the rank
      loop -- depth first, a product overwrites a chain an earlier rank
      consumed (:func:`repro.codegen.cbackend.product_homes`), so only the
      first few need rows of their own; alias (zero-traffic) chains are
      block views of the parent operand and cost nothing;
    - ``form_C`` takes ``|C defs|`` scratch rows.

    The depth-first drivers hold one such set per level; the ``tree``
    holds one per *node* -- ``R^l`` of them at level ``l``, the Section
    4.2 pools with ``slots`` rows where the NumPy tree
    (:func:`bfs_footprint`) holds ``R`` separate buffers.

    The levels are the shared :func:`_split_levels`; peeling takes nothing
    (the inner strip rides in ``form_C``).  Slot counts come from the
    backend's own
    :func:`repro.codegen.cbackend._prepare` (imported lazily --
    ``repro.codegen`` depends on this module, not vice versa), so arena
    sizing cannot drift from the slab layout the emitted C actually uses.
    """
    from repro.codegen.cbackend import _prepare, product_homes

    s, t, c = _prepare(algorithm, cse)
    R = algorithm.rank
    f64 = np.dtype(np.float64)
    take = _Tally(f64.itemsize)
    p, q, r = (int(d) for d in shape)
    a = np.dtype(dtype_a)
    b = np.dtype(dtype_b if dtype_b is not None else dtype_a)
    total = 0
    if a != f64:
        total += take(p * q)                        # Ad conversion copy
    if b != f64:
        total += take(q * r)                        # Bd conversion copy
    if np.result_type(a, b) != f64:
        total += take(p * r)                        # double result buffer
    nodes = 1
    for *_, (bp, bq, bn) in _split_levels(
            [algorithm.base_case] * steps, p, q, r):
        total += take(max(s["slots"], 1) * bp * bq, nodes)   # form_S slab
        total += take(max(t["slots"], 1) * bq * bn, nodes)   # form_T slab
        # all R products live until form_C: a slab of their own per tree
        # node; depth first, those that found no consumed chain to overwrite
        own = R if tree else product_homes(s["layout"], t["layout"],
                                           bp, bq, bn)[1]
        total += take(own * bp * bn, nodes)                  # product slab
        total += take(len(c["defs"]) * bn, nodes)            # form_C Y rows
        if tree:
            nodes *= R
    return take.total(total)


# ---------------------------------------------------------------------------
# allocation tracking (the regression tests' and benchmark's allocator probe)
# ---------------------------------------------------------------------------
class AllocationReport:
    """Filled in when a :func:`track_allocations` block exits."""

    def __init__(self) -> None:
        self.peak_bytes: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AllocationReport(peak_bytes={self.peak_bytes})"


@contextlib.contextmanager
def track_allocations():
    """Measure the peak heap growth inside the ``with`` block.

    Uses :mod:`tracemalloc`, which numpy's data allocator reports into, so
    every array buffer -- including temporaries created and freed inside a
    single expression -- is visible.  ``report.peak_bytes`` is the peak
    traced memory minus the baseline at entry: a warm arena-backed call
    must keep it under the large-allocation threshold, while one stray
    ``np.empty`` of a matrix-sized temporary pushes it far above.
    """
    report = AllocationReport()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        yield report
        _, peak = tracemalloc.get_traced_memory()
        report.peak_bytes = max(0, peak - baseline)
    finally:
        if not was_tracing:
            tracemalloc.stop()
