"""One oracle for every executor: one strategy of legal operands, one check.

The paper's generator emits sequential, DFS, BFS and HYBRID variants of
every algorithm, and all of them must compute the same product.  This
module says so once, for every executor that ``execute_plan`` and
``matmul_batched`` reach -- plain BLAS at 1-3 threads (stacked batches
included), and sequential/dfs/bfs/hybrid at 1-3 threads over
``strassen``, ``s334``, ``s424`` and the APA entries ``bini322`` and
``schonhage333`` up to ``max_stable_steps`` -- and for the public entry
points ``matmul``, ``multiply_reference``, ``multiply_schedule``,
``compile_algorithm`` and ``multiply_parallel`` (all but ``matmul``
over every catalog entry, one and two levels deep, and the parallel
schemes at 1-3 threads).  Each plan and each (entry point, algorithm,
depth) is a test case of its own, so a failure names what it broke.
Which executor a call lands on (the compiled step or the interpreter) is
the library's choice; under ``REPRO_CC=false`` the same tests drive the
interpreter alone.

:func:`operands` draws what a caller can legally pass: dimensions 0 and
1 and the base-case residues 0, 1 and m-1 around the tuner's leaf
cutoff; C, Fortran, row-strided, column-strided, negatively strided and
broadcast (stride-0) layouts; no ``out``, a strided one, or one aliasing
or overlapping an operand; float32/float64/int/bool mixes, and complex
and extended-precision operands, which every entry point must refuse;
finite, NaN and Inf payloads.

:func:`check` accepts one of two outcomes.  Either the call returns the
product -- within ``core.stability.error_bound`` of a float64
``np.matmul``, norm-wise, and a second call in the same arena draws
nothing from the heap (``overflow_allocations == 0``); for a NaN/Inf
payload the product must instead be non-finite wherever ``np.matmul``'s
is (finite entries are not compared: Strassen's C22 reads A11 through
M1, M3 and M6 and cancels it only algebraically, so Inf - Inf gives
NaN) -- or it raises the documented ``ValueError``: ``cannot multiply``
for an unrepresentable dtype (never a narrowed product), ``overlap`` for
an ``out`` sharing memory with an operand (or the product anyway, as
``np.matmul`` buffers it).

Bit-for-bit equality is asserted elsewhere, only where it is a design
property:

- the step against the interpreter without CSE
  (``test_cstep.py::test_every_candidate_step_is_the_interpreter``): the
  two executors of a fast product add the same terms in the same order;
- the team's row ranges against one thread (``test_team.py``,
  ``test_schedules.py::test_every_schedule_returns_the_sequential_steps_bits``):
  a range never reorders a chain's terms;
- the vendor's batched waves against one-thread gemms
  (``test_batched.py``): each product of a wave is one one-thread gemm;
- the arena against the heap (``test_workspace.py``): an arena changes
  where the temporaries live, never the order of a sum.

Everywhere else -- CSE, the mixed-precision and packed paths, the APA
entries -- the summation order is free, and the bound is the contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms import get_algorithm, list_algorithms
from repro.core.recursion import multiply_schedule
from repro.core.stability import error_bound, max_stable_steps
from repro.core.workspace import Workspace
from repro.parallel.pool import WorkerPool
from repro.parallel.schedules import SCHEMES, multiply_parallel
from repro.tuner import PlanCache, dispatch, matmul_batched
from repro.tuner.space import Plan, default_min_leaf
from repro.util.validation import as_floating

ALGORITHMS = ("strassen", "s334", "s424", "bini322", "schonhage333")
THREADS = (1, 2, 3)

#: (algorithm, steps): up to the entry's float64 stability budget, two
#: levels at most
LEVELS = [(name, steps) for name in ALGORITHMS for steps in range(
    1, min(2, max_stable_steps(get_algorithm(name))) + 1)]

PLANS = ([Plan(threads=t) for t in THREADS]
         + [Plan(name, steps, threads=1) for name, steps in LEVELS]
         + [Plan(name, steps, scheme=scheme, threads=t)
            for name, steps in LEVELS for scheme in SCHEMES for t in THREADS])

UPCAST = (np.float16, np.int8, np.uint16, np.int64, np.bool_)
REFUSED = (np.complex64, np.complex128) + (
    (np.longdouble,) if np.dtype(np.longdouble).itemsize > 8 else ())
#: an operand's dtype: float32 or float64 seven times in ten, a narrower
#: type twice, a refused one once
DTYPES = st.integers(0, 9).flatmap(lambda i: st.sampled_from(
    (np.float64, np.float32) if i < 7 else UPCAST if i < 9 else REFUSED))
LAYOUTS = ("C", "F", "rows", "cols", "neg", "bcast")
OUTS = (None, "C", "rows", "F", "neg", "alias", "alias")

ORACLE = settings(suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.data_too_large])

#: NaN/Inf payloads warn in NumPy's kernels, as they should
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# =========================================================================
# the strategy
# =========================================================================
def _computed(dtype) -> np.dtype:
    """The dtype the library computes an operand in: float32 and float64
    as they are, every narrower type in float64."""
    dtype = np.dtype(dtype)
    return dtype if dtype in (np.float32, np.float64) else np.dtype(np.float64)


def _result(dtype_a, dtype_b) -> np.dtype:
    """The dtype of the product the library returns."""
    return np.result_type(_computed(dtype_a), _computed(dtype_b))


def _values(rng, shape, dtype, nonfinite: bool) -> np.ndarray:
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return rng.random(shape) < 0.5
    if dtype.kind in "iu":
        return rng.integers(-8, 9, shape).astype(dtype)
    X = rng.uniform(-1, 1, shape)
    if dtype.kind == "c":
        X = X + 1j * rng.uniform(0.5, 1, shape)   # never quietly real
    X = X.astype(dtype)
    if nonfinite and X.size:
        X.flat[rng.integers(0, X.size, 2)] = rng.choice(
            [np.nan, np.inf, -np.inf], 2)
    return X


def _lay(X: np.ndarray, layout: str) -> np.ndarray:
    """``X`` (or, for ``bcast``, its first row repeated) in ``layout``,
    over the last two axes."""
    cols = X.shape[-1]
    if layout == "F":
        return np.asfortranarray(X)
    if layout in ("rows", "cols"):
        wide = (cols + 3,) if layout == "rows" else (2 * cols,)
        view = np.zeros(X.shape[:-1] + wide, X.dtype)
        view = view[..., 1:cols + 1] if layout == "rows" else view[..., ::2]
        view[...] = X
        return view
    if layout == "neg":
        return X[..., ::-1, :].copy()[..., ::-1, :]
    if layout == "bcast":
        return np.broadcast_to(X[..., :1, :], X.shape)
    return np.ascontiguousarray(X)


def _out(kind, A, B, rng):
    """``(out, A, B)``: a destination of kind ``kind`` -- for ``alias``,
    one that is an operand or overlaps one, which then lives in the
    destination's buffer."""
    lead, (p, q), r = A.shape[:-2], A.shape[-2:], B.shape[-1]
    dtype = _result(A.dtype, B.dtype)
    shape = lead + (p, r)
    if kind == "alias" and min(p, q, r) > 0:
        which = [X for X in (A, B) if X.dtype == dtype]
        if which and lead and lead[0] > 1:     # out[i] overlaps X[i + 1]
            X, size = which[0], max(p * r, which[0][0].size)
            base = np.empty((lead[0] + 1, size), dtype)
            X2 = base[:-1, :X[0].size].reshape(X.shape)
            X2[...] = X
            out = base[1:, :p * r].reshape(shape)
            return (out, X2, B) if X is A else (out, A, X2)
        if which and rng.random() < 0.5 and which[0].shape == shape:
            X = which[0].copy()
            return X, *((X, B) if which[0] is A else (A, X))
        if A.dtype == dtype:          # out shares A's last column
            base = np.empty(lead + (p, q + r - 1), dtype)
            base[..., :q] = A
            return base[..., q - 1:], base[..., :q], B
        if B.dtype == dtype:          # out shares B's last row
            base = np.empty(lead + (q + p - 1, r), dtype)
            base[..., :q, :] = B
            return base[..., q - 1:, :], A, base[..., :q, :]
    if kind is None:
        return None, A, B
    if kind == "rows":
        return np.full(lead + (p, r + 2), np.nan, dtype)[..., 1:r + 1], A, B
    if kind == "F":
        return np.full(shape, np.nan, dtype, order="F"), A, B
    if kind == "neg":
        return np.full(shape, np.nan, dtype)[..., ::-1, :], A, B
    return np.full(shape, np.nan, dtype), A, B


def _dims(base, steps, leaf):
    """One dimension per base-case entry: 0, 1, or ``b**steps * l`` plus
    the residue 0, 1 or b-1, ``l`` up to the leaf cutoff."""
    return st.tuples(*(st.sampled_from(sorted(
        {b ** steps * l + res for l in (1, 2, leaf)
         for res in (0, 1, b - 1)}) + [0, 1]) for b in base))


@st.composite
def operands(draw, base=(2, 2, 2), steps=1, batch: bool = False):
    """``(A, B, out)`` a caller can pass for ``steps`` levels of a
    ``base`` algorithm: a 3-D stack of them with ``batch``."""
    dt_a, dt_b = draw(DTYPES), draw(DTYPES)
    dims = _dims(base, steps, default_min_leaf(_result(dt_a, dt_b).name))
    if batch:     # 101: every product above the vendor's crash guard
        dims = st.one_of(dims, st.tuples(*[st.integers(101, 112)] * 3))
    p, q, r = draw(dims)
    lead = (draw(st.integers(0, 5)),) if batch else ()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nonfinite = draw(st.integers(0, 3)) == 3
    A = _lay(_values(rng, lead + (p, q), dt_a, nonfinite),
             draw(st.sampled_from(LAYOUTS)))
    B = _lay(_values(rng, lead + (q, r), dt_b, nonfinite),
             draw(st.sampled_from(LAYOUTS)))
    out, A, B = _out(draw(st.sampled_from(OUTS)), A, B, rng)
    return A, B, out


# =========================================================================
# the assertion
# =========================================================================
def _refusal(A, B, out) -> str | None:
    """The documented ``ValueError`` these operands may raise."""
    if any(np.dtype(X.dtype).type in REFUSED for X in (A, B)):
        return "cannot multiply"
    if out is not None and (np.may_share_memory(out, A)
                            or np.may_share_memory(out, B)):
        return "overlap"
    return None


def check(call, A, B, alg, steps, out=None, arena=None) -> None:
    """``call(A, B, out)`` returns ``A @ B`` within the error bound of
    ``steps`` levels of ``alg`` (an algorithm, a schedule of them, or
    ``None`` for plain BLAS), writing ``out`` when given, and a second
    call spills nothing out of ``arena`` -- or it raises the documented
    ``ValueError``."""
    wide = np.result_type(A.dtype, B.dtype, np.float64)
    ref = np.matmul(A.astype(wide), B.astype(wide))
    scale = np.linalg.norm(A.astype(wide)) * np.linalg.norm(B.astype(wide))
    refusal = _refusal(A, B, out)
    frame = (out.base if out is not None and isinstance(out.base, np.ndarray)
             and out.base.size > out.size and np.isnan(out.base).all()
             else None)
    try:
        C = call(A, B, out)
    except ValueError as exc:
        assert refusal is not None and refusal in str(exc), exc
        return
    assert refusal != "cannot multiply", "an unrepresentable product served"
    assert out is None or C is out
    if frame is not None:       # nothing around ``out`` was written
        assert np.isnan(frame).sum() == (frame.size - out.size
                                         + np.isnan(out).sum())
    C = np.stack(C) if isinstance(C, list) else C
    assert C.shape == ref.shape and C.dtype == _result(A.dtype, B.dtype)
    bad = ~np.isfinite(ref)
    if bad.any() or not ref.size:
        assert not np.isfinite(C[bad]).any()
    else:
        low = "float32" if np.float32 in (A.dtype, B.dtype) else "float64"
        q = A.shape[-1]
        algs = alg if isinstance(alg, list) else [alg] * (alg is not None)
        bound = max((error_bound(a, steps, q, low) for a in algs),
                    default=max(q, 1) * np.finfo(low).eps)
        err = np.linalg.norm(C.astype(wide) - ref)
        assert err <= bound * scale, (err / scale, bound)
    if arena is not None:
        call(A, B, out)
        assert arena.overflow_allocations == 0


# =========================================================================
# the executors
# =========================================================================
_pools: dict[int, WorkerPool] = {}


def _pool(threads: int) -> WorkerPool:
    if threads not in _pools:
        _pools[threads] = WorkerPool(threads)
    return _pools[threads]


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    while _pools:
        _pools.popitem()[1].shutdown()


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return PlanCache(tmp_path_factory.mktemp("oracle") / "plans.json")


def _algorithm(plan: Plan):
    return None if plan.is_dgemm else get_algorithm(plan.algorithm)


def _base(plan: Plan):
    return (2, 2, 2) if plan.is_dgemm else _algorithm(plan).base_case


def _plan_id(plan: Plan) -> str:
    if plan.is_dgemm:
        return f"dgemm-{plan.threads}t"
    return f"{plan.algorithm}x{plan.steps}-{plan.scheme}-{plan.threads}t"


def _arena(build, A, B):
    """``build(p, q, r, dtype_a, dtype_b)`` for the dtypes the library
    computes the operands in; ``None`` for operands it refuses."""
    if _refusal(A, B, None):
        return None
    return build(A.shape[-2], *B.shape[-2:], _computed(A.dtype),
                 _computed(B.dtype))


@pytest.mark.parametrize("plan", PLANS, ids=_plan_id)
@settings(ORACLE, max_examples=3)
@given(data=st.data())
def test_every_plan(plan, data):
    """``execute_plan`` of every reachable plan, on operands as
    ``matmul`` hands them over (promoted by ``as_floating``), in an arena
    of the plan's footprint."""
    A, B, out = data.draw(operands(_base(plan), plan.steps))
    ws = _arena(lambda *shape: dispatch.build_workspace(plan, *shape), A, B)
    check(lambda A, B, out: dispatch.execute_plan(
              plan, as_floating(A), as_floating(B), out=out, workspace=ws),
          A, B, _algorithm(plan), plan.steps, out, ws)


def _stack_alias():
    """A stacked batch of two products above the vendor's crash guard
    whose ``out`` is its ``A``: handed to the vendor's batched gemm at two
    threads, it reads products it has already written."""
    A = np.random.default_rng(0).uniform(-1, 1, (2, 101, 101))
    return A, A[:, ::-1].copy(), A


@pytest.mark.parametrize("threads", THREADS)
@settings(ORACLE, max_examples=50)
@given(ops=operands((2, 2, 2), 0, batch=True))
@example(ops=_stack_alias())
def test_stacked_plain_blas(threads, ops):
    """The stacked plain-BLAS path of ``execute_plan``: whole waves of
    ``threads`` products as one vendor batched gemm, the rest and every
    aliased ``out`` through ``np.matmul``."""
    A, B, out = ops
    check(lambda A, B, out: dispatch.execute_plan(
              Plan(threads=threads), as_floating(A), as_floating(B),
              out=out), A, B, None, 0, out)


def _check_batched(plan, A, B, out, listed, cache):
    """:func:`check` ``matmul_batched`` on a stack, or on the list of its
    elements, with ``plan`` pinned for the shape."""
    if not _refusal(A, B, None):
        cache.put(A.shape[1], *B.shape[1:], _result(A.dtype, B.dtype).name,
                  plan.threads, plan)

    def call(A, B, out):
        if not (listed and len(A)):
            return matmul_batched(A, B, out=out, threads=plan.threads,
                                  cache=cache)
        outs = None if out is None else list(out)
        C = matmul_batched(list(A), list(B), out=outs, threads=plan.threads,
                           cache=cache)
        assert outs is None or C is outs
        return np.stack(C) if out is None else out
    check(call, A, B, _algorithm(plan), plan.steps, out)


@pytest.mark.parametrize("plan", PLANS, ids=_plan_id)
@settings(ORACLE, max_examples=2)
@given(data=st.data(), listed=st.booleans())
def test_matmul_batched(plan, data, listed, cache):
    """``matmul_batched`` on a stack, or on the list of its elements,
    with every reachable plan pinned for the shape."""
    A, B, out = data.draw(operands(_base(plan), plan.steps, batch=True))
    _check_batched(plan, A, B, out, listed, cache)


def test_listed_out_over_the_next_operand(cache):
    """A list batch whose ``out[0]`` is ``A[1]``: each pair passed the
    overlap check, and the first product overwrote the second's ``A``."""
    base = np.random.default_rng(2).uniform(-1, 1, (3, 8, 8))
    _check_batched(Plan(threads=1), base[:-1], base[:-1].copy(), base[1:],
                   True, cache)


def _check_entry(entry, alg, steps, extra, A, B, out, cache):
    """:func:`check` one public entry point on ``steps`` levels of
    ``alg`` (a schedule of algorithms for ``multiply_schedule``)."""
    ws = None
    if entry == "matmul":
        plan = extra
        if not _refusal(A, B, None):
            p, q, r = A.shape[0], *B.shape
            cache.put(p, q, r, _result(A.dtype, B.dtype).name, plan.threads,
                      plan)
            ws = dispatch.workspace_for(plan, p, q, r, _computed(A.dtype),
                                        _computed(B.dtype))

        def call(A, B, out):
            return repro.matmul(A, B, threads=plan.threads, cache=cache,
                                out=out)
    elif entry == "multiply_reference":     # on the heap
        def call(A, B, out):
            return repro.multiply_reference(A, B, alg, steps=steps, out=out)
    elif entry == "multiply_schedule":      # in its Section 4.1 arena
        ws = _arena(lambda *shape: Workspace.for_recursion(
            [a.base_case for a in alg], *shape, algorithms=alg), A, B)

        def call(A, B, out):
            return multiply_schedule(A, B, alg, out=out, workspace=ws)
    elif entry == "compile_algorithm":
        fn = repro.compile_algorithm(alg, cse=extra)

        def call(A, B, out):
            return fn(A, B, steps=steps, out=out)
    else:
        scheme, threads, shared = extra
        # on the shared pool, in an arena the call reserves itself; or on
        # a pool and the heap of its own
        ws = Workspace(0) if shared else None

        def call(A, B, out):
            return multiply_parallel(
                A, B, alg, steps=steps, scheme=scheme, threads=threads,
                pool=_pool(threads) if shared else None, out=out,
                workspace=ws)
    check(call, A, B, alg, steps, out, ws)


@pytest.mark.parametrize("plan", PLANS, ids=_plan_id)
@settings(ORACLE, max_examples=2)
@given(data=st.data())
def test_matmul(plan, data, cache):
    """``matmul`` with every reachable plan pinned for the shape, in the
    arena ``workspace_for`` keeps for it."""
    A, B, out = data.draw(operands(_base(plan), plan.steps))
    _check_entry("matmul", _algorithm(plan), plan.steps, plan, A, B, out,
                 cache)


#: the catalog, and the rotation of ``s244`` the tuner's candidates add
NAMES = list_algorithms(include_apa=True) + ["s424"]

#: ``(entry point, scheme and threads)``: the interpreter, alone or over
#: a schedule of algorithms; the sequential product ``compile_algorithm``
#: serves; each parallel scheme at 1-3 threads
ENTRIES = ([pytest.param(entry, None, id=entry) for entry in (
               "multiply_reference", "multiply_schedule", "compile_algorithm")]
           + [pytest.param("multiply_parallel", (scheme, t),
                           id=f"{scheme}-{t}t")
              for scheme in SCHEMES for t in THREADS])


@pytest.mark.parametrize("steps", (1, 2))
@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("entry, how", ENTRIES)
@settings(ORACLE, max_examples=2)
@given(data=st.data())
def test_every_entry_point(entry, how, name, steps, data, cache):
    """Every catalog entry, one and two levels deep, through every public
    product but ``matmul``: a schedule puts a drawn entry below ``name``;
    ``compile_algorithm`` draws CSE; a parallel call draws the shared pool
    (and an arena it reserves) or a pool and the heap of its own."""
    alg = get_algorithm(name)
    extra = None
    if entry == "multiply_schedule":
        alg = [alg] + [get_algorithm(n) for n in data.draw(st.lists(
            st.sampled_from(NAMES), min_size=steps - 1, max_size=steps - 1))]
    elif entry == "compile_algorithm":
        extra = data.draw(st.booleans())
    elif entry == "multiply_parallel":
        extra = (*how, data.draw(st.booleans()))
    base = alg[0].base_case if isinstance(alg, list) else alg.base_case
    A, B, out = data.draw(operands(base, steps))
    _check_entry(entry, alg, steps, extra, A, B, out, cache)


def test_float16_by_float32_is_computed_in_float64(cache):
    """The float kernels served a float16 x float32 product at float32,
    where every other entry point computes it in float64."""
    rng = np.random.default_rng(1)
    _check_entry("compile_algorithm", get_algorithm("strassen"), 1, False,
                 rng.uniform(-1, 1, (5, 4)).astype(np.float16),
                 rng.uniform(-1, 1, (4, 6)).astype(np.float32), None, cache)
