"""Arithmetic, communication and memory cost models for fast algorithms.

Reproduces the analytical machinery the paper uses to reason about
performance:

- flop-count recurrences (Section 2.1): ``F_C(N) = 2N^3 - N^2`` classical,
  ``F_S(N) = 7 N^{log2 7} - 6 N^2`` for Strassen, and the generalization to
  any ``<M,K,N>`` base case and any recursion depth;
- the per-recursive-step multiplication speedup of Table 2;
- submatrix read/write counts of the three matrix-addition strategies
  (Section 3.2) -- the quantity that actually separates them in practice;
- CSE's effect on reads/writes (the "k - 3" argument of Section 3.3);
- the memory-footprint factor of the BFS scheme (Section 4.2);
- effective-GFLOPS (Equation 3) lives in ``repro.bench.metrics``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.algorithm import FastAlgorithm


# --------------------------------------------------------------------- flops
def classical_flops(p: int, q: int, r: int) -> int:
    """Exact classical flop count ``2pqr - pr`` (fused multiply + add tree)."""
    return 2 * p * q * r - p * r


def _chain_counts(alg: FastAlgorithm) -> tuple[tuple[int, int, int, int], ...]:
    """Per side (S chains over A blocks, T over B blocks, C over products):
    ``(chains, nonzeros, single-term chains, non-unit coefficients)``.

    Counted once per algorithm (:meth:`FastAlgorithm.memo`): the tuner
    scores hundreds of candidates per shape."""
    return alg.memo("_chain_counts", _count_chains)


def _count_chains(alg: FastAlgorithm):
    sides = []
    for mat, axis in ((alg.U, 0), (alg.V, 0), (alg.W, 1)):
        terms = np.count_nonzero(mat, axis=axis)
        sides.append((
            int(np.count_nonzero(terms)),
            int(terms.sum()),
            int(np.count_nonzero(terms == 1)),
            int(np.count_nonzero((mat != 0) & (np.abs(mat) != 1.0))),
        ))
    return tuple(sides)


def recursive_flops(alg: FastAlgorithm, p: int, q: int, r: int, steps: int) -> int:
    """Total flops of ``steps`` recursion levels with classical leaves.

    Requires ``(p, q, r)`` divisible by ``(m^steps, k^steps, n^steps)`` --
    the model ignores peeling, exactly like the paper's recurrences.
    """
    m, k, n = alg.base_case
    if steps == 0:
        return classical_flops(p, q, r)
    if p % m or q % k or r % n:
        raise ValueError(
            f"dimensions {(p, q, r)} not divisible by base case {(m, k, n)}"
        )
    bp, bq, br = p // m, q // k, r // n
    # a chain of t terms costs t - 1 additions per entry (+-1 scalings
    # are free; a generic coefficient adds one multiply, counted too)
    wa, wb, wc = (nnz - chains + scal
                  for chains, nnz, _, scal in _chain_counts(alg))
    adds = wa * bp * bq + wb * bq * br + wc * bp * br
    return adds + alg.rank * recursive_flops(alg, bp, bq, br, steps - 1)


def strassen_flops(N: int) -> int:
    """Closed form ``7 N^{log2 7} - 6 N^2`` for N a power of two (Section 2.1)."""
    if N & (N - 1):
        raise ValueError("closed form requires N to be a power of two")
    return round(7 * N ** math.log2(7) - 6 * N * N)


def speedup_per_step(alg: FastAlgorithm) -> float:
    """Table-2 column: multiplication speedup per recursive step,
    ``mkn/R - 1`` (e.g. 8/7 - 1 ~= 14% for Strassen)."""
    return alg.multiplication_speedup_per_step


# --------------------------------------------------- tuner ranking model
def parallel_traffic(
    alg: FastAlgorithm | None,
    p: int,
    q: int,
    r: int,
    steps: int,
    scheme: str = "sequential",
    threads: int = 1,
    subgroup: int | None = None,
) -> float:
    """Modeled extra memory traffic (words moved) of a parallel scheme.

    Sequential and DFS executions reuse one S/T/M_r triple per level
    (Section 4.1), so they set the zero baseline.  Two terms beyond it:

    - **BFS per-level pools** (Section 4.2): expanding level ``l``
      materializes ``R^l`` leaf-product intermediates totalling
      ``(R/(MN))^l`` copies of the output ``C``, each written by its task
      and read back during the combine walk -- ``2 (R/(MN))^l p r`` words
      per level, paid by ``bfs``, ``hybrid`` and ``hybrid-subgroup``
      alike.  The schedules now hold far less -- the top level, the
      children left over from whole waves expanded once more, and a step
      region per thread (:func:`repro.parallel.schedules.
      parallel_footprint`) -- but the charge is kept as it was, so that
      no untuned plan moves until a ledger row says how.

    - **Ballard-style inter-group traffic** (``hybrid-subgroup`` only,
      after Ballard et al.'s communication model for parallel Strassen):
      the ``R^steps mod threads`` remainder leaves run on disjoint groups
      of ``subgroup`` = P' threads.  With ``G = threads // P'`` groups
      working concurrently, a ``(G-1)/G`` share of each remainder leaf's
      operand + output words crosses group boundaries, and leaves that do
      not fill the last wave of ``G`` idle a group's worth of bandwidth
      (the load-imbalance cost of Section 4.3).  Large P' (few groups)
      minimizes cross-group traffic but serializes waves; small P' is the
      reverse -- which is exactly why P' is a tuning knob and not a
      formula.

    Returns 0.0 whenever no parallel expansion happens (``threads <= 1``,
    ``steps <= 0``, or a sequential/DFS scheme).
    """
    if alg is None or steps <= 0 or threads <= 1:
        return 0.0
    if scheme in ("sequential", "dfs"):
        return 0.0
    m, k, n = alg.base_case
    R = alg.rank
    factor = 1.0
    traffic = 0.0
    for _ in range(steps):
        factor *= R / (m * n)
        traffic += 2.0 * factor * p * r
    if scheme == "hybrid-subgroup" and subgroup:
        rem = R**steps % threads
        if rem:
            lp, lq, lr = p / m**steps, q / k**steps, r / n**steps
            leaf_words = lp * lq + lq * lr + lp * lr
            groups = max(1, threads // subgroup)
            traffic += rem * leaf_words * (groups - 1) / groups
            traffic += (math.ceil(rem / groups) * groups - rem) * leaf_words
    return traffic


def plan_cost(
    alg: FastAlgorithm | None,
    p: int,
    q: int,
    r: int,
    steps: int,
    scheme: str = "sequential",
    threads: int = 1,
    subgroup: int | None = None,
    backend: str | None = None,
    dtype: str = "float64",
) -> float:
    """Predicted seconds of running ``alg`` at ``steps`` on ``p x q x r``,
    from this machine's :func:`repro.bench.machine.calibration`:

    - **leaf gemms** at the rate the gemm curve gives for the leaf's size
      and per-gemm thread count, so the Section 3.4 ramp-up is in the
      score.  Sequential and DFS leaves run one after another on all
      ``threads``; BFS leaves one thread each in ``ceil(R^L / threads)``
      waves; the hybrids run the full waves that way and the remainder on
      all threads (or in waves of ``threads / P'`` groups of P' threads).
      A full wave takes the single-thread leaf time or the all-threads
      gemm over the wave's work, whichever is longer: leaves side by side
      share the machine, a lone thread's measured rate is not theirs, and
      both sides of the comparison with dgemm then read the same curve;
    - **S/T/C chain traffic** (:func:`addition_rw_counts` x block bytes,
      plus :func:`parallel_traffic` and the peel fix-ups of non-divisible
      dimensions -- a peeled inner dimension costs the interpreter a
      read and a write of the core, the compiled kernels nothing: the strip
      rides in ``form_C``) over the streaming-add bandwidth (Section 3.2:
      additions are bandwidth-bound, gemms compute-bound).
      The C library forms a chain in fused passes (write-once counts);
      the interpreter makes one pass *per term* (pairwise counts);
    - a **fixed cost per product** of every fast call, and **per pool
      task** of the parallel schemes -- the tasks the schedule submits.

    ``alg=None`` (or ``steps <= 0``) is the plain vendor gemm: exactly the
    curve's prediction.  A gemm on all ``threads`` is priced at the faster
    of the ``threads`` and the one-thread curve: more BLAS threads never
    make the vendor's gemm slower, but a vCPU that stalls while the
    calibration runs makes the measured curve say so (every 2-thread
    point from 128 up at ~16 ms a call, for the first seconds of some
    processes on a 2-vCPU VM).  Every fast plan is priced for the kernels
    that will form its chains (:func:`repro.codegen.cbackend.chains_fused`,
    the same rule :func:`repro.tuner.dispatch.execute_plan`, the schedules
    and their arenas follow), at ``dtype``'s own gemm curve and itemsize:
    fused chains -- and, in parallel, one task per row range -- or NumPy
    passes and one task per chain (``dfs``) or child (the tree).
    ``backend`` is accepted for old callers and ignored.
    """
    from repro.bench.machine import calibration
    from repro.codegen.cbackend import chains_fused

    volume = p * q * r
    fast = alg is not None and steps > 0
    cal = calibration(dtype, threads, volume)
    one = cal if threads == 1 else calibration(dtype, 1, volume)

    def all_threads(lp: float, lq: float, lr: float) -> float:
        # the vendor gemm on every thread is never slower than on one: a
        # point of the T-thread curve under the one-thread curve is a
        # vCPU that stalled while the calibration ran, not the gemm
        return min(cal.gemm.seconds(lp, lq, lr), one.gemm.seconds(lp, lq, lr))

    if not fast:
        return all_threads(p, q, r)
    # only DFS and the tree schemes spread their additions over the pool
    adders = one if scheme == "sequential" else cal
    fused = chains_fused(dtype, scheme=scheme)
    passes = [rd + wr for rd, wr in
              _rw_by_side(alg, "write_once" if fused else "pairwise")]
    strip_words = 0 if fused else 2
    m, k, n = alg.base_case
    words = parallel_traffic(alg, p, q, r, steps, scheme=scheme,
                             threads=threads, subgroup=subgroup)
    products = range_tasks = 0
    leaves, lp, lq, lr = 1, p, q, r
    for _ in range(steps):
        if lp < m or lq < k or lr < n:
            break       # a dimension ran out: the rest stays a leaf
        # dynamic peeling (Section 3.5): the divisible core recurses and
        # thin, bandwidth-bound products fix the strips up -- a pass over
        # A, over B, and for a peeled inner dimension the interpreter's
        # in-place update of the core (in, out); the compiled kernels add
        # that strip to the rows form_C is storing anyway
        words += leaves * ((lr % n > 0) * lp * lq + (lp % m > 0) * lq * lr
                           + (lq % k > 0) * strip_words * lp * lr)
        lp, lq, lr = lp // m, lq // k, lr // n
        words += leaves * (passes[0] * lp * lq + passes[1] * lq * lr
                           + passes[2] * lp * lr)
        # a kernel sweep of the tree cuts each node into enough row ranges
        # that the level has a task per thread
        range_tasks += leaves * -(-threads // leaves)
        leaves *= alg.rank
        products += leaves
    cost = (words * np.dtype(dtype).itemsize / (adders.add_gbs * 1e9)
            + products * cal.call_s)
    wide = all_threads(lp, lq, lr)
    if scheme in ("sequential", "dfs"):
        cost += leaves * wide
        if scheme == "dfs":
            # every sweep is a fan-out of one row-range task per worker:
            # form_S, form_T and form_C per node when fused, else a sweep
            # per chain
            (ca, _, sa, _), (cb, _, sb, _), (_, nc, _, _) = _chain_counts(alg)
            fanouts = 3 if fused else ca - sa + cb - sb + nc
            cost += products / alg.rank * fanouts * threads * cal.task_s
        return cost
    if fused:
        # a task per row range to expand and to combine, one per leaf
        cost += (2 * range_tasks + leaves) * cal.task_s
    else:
        # one task to form each child, multiply each leaf, combine each node
        cost += (2 * products + 1) * cal.task_s
    narrow = one.gemm.seconds(lp, lq, lr)
    # a full wave -- a leaf per thread, side by side -- is no faster than
    # the vendor's own gemm on all threads over the wave's work
    wave = max(narrow, all_threads(lp, lq, lr * threads))
    rem = leaves % threads
    cost += leaves // threads * wave
    if scheme == "bfs":
        return cost + (rem > 0) * narrow
    if rem and scheme == "hybrid-subgroup" and subgroup:
        # P' threads per gemm: between the two measured rates, by log(threads)
        share = math.log(subgroup) / math.log(threads)
        cost += (math.ceil(rem * subgroup / threads)
                 * narrow ** (1.0 - share) * wide ** share)
    else:
        cost += rem * wide
    return cost


# ------------------------------------------------------ reads/writes, Sec 3.2
def _rw_by_side(alg: FastAlgorithm, strategy: str):
    """``(reads, writes)`` in A blocks, in B blocks, in C blocks."""
    m, k, n = alg.base_case
    (ca, na, sa, _), (cb, nb, sb, _), (cc, nc, _, _) = _chain_counts(alg)
    if strategy == "pairwise":
        return (2 * na - ca, na), (2 * nb - cb, nb), (2 * nc - cc, nc)
    if strategy == "write_once":
        return (na, ca - sa), (nb, cb - sb), (nc, cc)
    if strategy == "streaming":
        return (m * k, ca - sa), (k * n, cb - sb), (alg.rank, cc)
    raise ValueError(f"unknown strategy {strategy!r}")


def addition_rw_counts(alg: FastAlgorithm, strategy: str) -> tuple[int, int]:
    """(submatrix reads, submatrix writes) per recursion level, Section 3.2.

    pairwise:   2*nnz(U,V,W) - 2R - MN reads,  nnz(U,V,W) writes
    write-once: nnz(U,V,W) reads,              <= 2R + MN writes
    streaming:  MK + KN + R reads,             <= 2R + MN writes

    For write-once/streaming we report the paper's upper bounds minus the
    copy-only chains (single-nonzero U/V columns need no temporary at all).
    """
    sides = _rw_by_side(alg, strategy)
    return sum(rd for rd, _ in sides), sum(wr for _, wr in sides)


def cse_rw_delta(occurrences: int) -> int:
    """Change in (reads + writes) from eliminating one length-2 subexpression
    used ``occurrences`` times under write-once additions (Section 3.3):
    saves 2 reads per use but costs 2 reads + 1 write to form the temporary,
    net ``3 - occurrences`` ... negative (an improvement) only for >= 4 uses.
    """
    return 3 - occurrences


# -------------------------------------------------------------------- memory
def bfs_memory_factor(alg: FastAlgorithm, levels: int = 1) -> float:
    """Extra memory (in units of the output C) the BFS scheme needs for the
    M_r intermediates: a factor ``R/(MN)`` per recursive step (Section 4.2)."""
    return (alg.rank / (alg.m * alg.n)) ** levels


# ------------------------------------------------------------------ exponent
def composed_exponent(base_cases: list[tuple[int, int, int]], ranks: list[int]) -> float:
    """Exponent of a composed (multi-level) algorithm such as the paper's
    <54,54,54> = <3,3,6> o <3,6,3> o <6,3,3> with 40^3 multiplies:
    ``omega = 3 log_{prod mkn}(prod R)``."""
    size = 1
    for m, k, n in base_cases:
        size *= m * k * n
    rank = math.prod(ranks)
    return 3.0 * math.log(rank) / math.log(size)
