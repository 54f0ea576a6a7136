"""The peel oracle: dynamic peeling (paper Section 3.5), stated once.

Every driver reachable without the tuner -- interpreter, composed
schedule, the three parallel schemes (HYBRID also at a thread count that
leaves it a remainder), the compiled step -- multiplies one
shared list of shapes whose p, q and r each take the three residues that
matter (divisible by the base case, remainder 1, remainder base-1), in
both dtypes, with and without an arena -- and again through row-strided views of wider arrays into an ``out=`` of
odd leading dimension, and two levels deep.  The product must be within
``error_bound`` of a float64 reference, and an arena sized by the driver's
footprint must not overflow.

Where the arithmetic is the same sequence -- the +-1 algorithms -- the
compiled driver and the parallel schemes must agree with the interpreter
bit for bit on peeled shapes too (the compiled kernels add the inner strip
inside ``form_C``, the interpreter in row chunks: same terms, same
order), and peeling must cost an arena one fixed-size chunk at most.
"""

import numpy as np
import pytest
from conftest import needs_cc

from repro.algorithms import get_algorithm
from repro.codegen import cbackend
from repro.core.recursion import multiply, multiply_schedule
from repro.core.stability import error_bound
from repro.core.workspace import (
    ALIGNMENT,
    Workspace,
    cbackend_footprint,
    dfs_footprint,
    track_allocations,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.schedules import (SCHEMES, multiply_parallel,
                                      parallel_footprint)
from repro.tuner.dispatch import build_workspace, execute_plan, plan_footprint
from repro.tuner.space import Plan
from repro.util.matrices import STRIP_SCRATCH_BYTES, random_matrix

NAME = "s334"  # <3,3,4>: remainder 1 != remainder base-1 in every dimension
ALG = get_algorithm(NAME)
STEPS = 1  # rank 30: a second step costs seconds per case
SCHEDULE = [ALG, ALG]  # ... so two-level peeling rides on the interpreter

#: (p, q, r): residues mod (3, 3, 4) in the comments
SHAPES = [
    (27, 27, 32),  # 0 0 0, divisible at both levels of the schedule
    (30, 30, 40),  # 0 0 0, then 10x10x10 peels at its second level
    (27, 28, 35),  # 0 1 3
    (28, 29, 32),  # 1 2 0
    (29, 27, 33),  # 2 0 1
    (29, 29, 35),  # 2 2 3
]


def _dfs_bytes(bases, algorithms=None):
    return lambda p, q, r, dt: dfs_footprint(bases, p, q, r, dt, dt,
                                             algorithms=algorithms)


def drivers(alg, steps):
    """name -> (run(A, B, workspace, pool, out), arena bytes(p, q, r,
    dtype)) for ``steps`` levels of ``alg``."""
    levels = [alg.base_case] * steps

    def parallel(scheme, threads=2):
        def nbytes(p, q, r, dt):
            return parallel_footprint(alg, steps, scheme, p, q, r, dt, dt,
                                      threads=threads)
        return (lambda A, B, ws, pool, out=None: multiply_parallel(
            A, B, alg, steps=steps, scheme=scheme, pool=pool,
            threads=threads, out=out, workspace=ws)), nbytes

    return {
        "interpreter": (
            lambda A, B, ws, pool, out=None: multiply(
                A, B, alg, steps=steps, out=out, workspace=ws),
            _dfs_bytes(levels, [alg] * steps)),
        **{scheme: parallel(scheme) for scheme in SCHEMES},
        # R^L mod 4 leaves (2 of s334's 30, 1 of Strassen's 49) left over
        # from whole waves run at 4-wide BLAS on the caller: the remainder
        # that 2 threads never leave under s334
        "hybrid-remainder": parallel("hybrid", threads=4),
        "compiled": (
            lambda A, B, ws, pool, out=None: cbackend.compile_chains(
                alg, dtype=A.dtype).multiply(A, B, steps=steps, out=out,
                                             workspace=ws),
            lambda p, q, r, dt: cbackend_footprint(alg, False, (p, q, r), dt,
                                                   steps)),
    }


DRIVERS = {
    **drivers(ALG, STEPS),
    "schedule": (
        lambda A, B, ws, pool, out=None: multiply_schedule(
            A, B, SCHEDULE, out=out, workspace=ws),
        _dfs_bytes([alg.base_case for alg in SCHEDULE])),
}

#: two levels, every dimension odd at both (47 -> 23): cheap under Strassen
DEEP = drivers(get_algorithm("strassen"), 2)
DEEP_SHAPE = (47, 47, 47)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as p:
        yield p


def _check(driver, table, alg, levels, shape, arena, dtype, pool,
           views=False):
    if driver == "compiled" and not cbackend.chains_fused(dtype):
        pytest.skip("no C compiler or no vendor cblas")
    run, nbytes = table[driver]
    p, q, r = shape
    A = random_matrix(p, q, p + q, dtype=dtype)
    B = random_matrix(q, r, q + r, dtype=dtype)
    out = None
    if views:
        # row-strided operands and a destination of odd leading dimension:
        # every executor must honour lda / ldb / ldc through the peel
        A = np.pad(A, ((0, 0), (3, 2)))[:, 3:3 + q]
        B = np.pad(B, ((0, 0), (1, 4)))[:, 1:1 + r]
        out = np.full((p, r + 5), np.nan, dtype=dtype)[:, 2:2 + r]
    ws = Workspace(nbytes(p, q, r, dtype)) if arena else None
    C = run(A, B, ws, pool, out)
    assert C.shape == (p, r) and C.dtype == np.dtype(dtype)
    if views:
        assert C is out and np.isnan(out.base[:, :2]).all() \
            and np.isnan(out.base[:, 2 + r:]).all()
    exact = A.astype("float64") @ B.astype("float64")
    rel = np.linalg.norm(C.astype("float64") - exact) / np.linalg.norm(exact)
    assert rel <= error_bound(alg, levels, q, dtype)
    if ws is not None:
        assert ws.overflow_allocations == 0


#: driver x shape x {heap, arena}
LEGS = [pytest.param(driver, shape, arena, id="-".join(
            (driver, "x".join(map(str, shape)), "arena" if arena else "heap")))
        for driver in DRIVERS for shape in SHAPES for arena in (False, True)]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("driver,shape,arena", LEGS)
def test_peel_oracle(driver, shape, arena, dtype, pool):
    _check(driver, DRIVERS, ALG, len(SCHEDULE), shape, arena, dtype, pool)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shape", SHAPES[3:], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("driver", DRIVERS)
def test_peel_oracle_through_views(driver, shape, dtype, pool):
    _check(driver, DRIVERS, ALG, len(SCHEDULE), shape, True, dtype, pool,
           views=True)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("views", [False, True], ids=["packed", "views"])
@pytest.mark.parametrize("driver", DEEP)
def test_peel_oracle_two_levels(driver, views, dtype, pool):
    _check(driver, DEEP, get_algorithm("strassen"), 2, DEEP_SHAPE, True,
           dtype, pool, views=views)


# =========================================================================
# same terms, same order: bits
# =========================================================================
@needs_cc
@pytest.mark.parametrize("name,steps,shape", [
    ("strassen", 2, (47, 45, 43)),     # strip width 1, at both levels
    ("s333", 1, (31, 29, 34)),         # Laderman: 29 = 9 * 3 + 2, width 2
    ("s333", 2, (92, 89, 95)),         # width 2, then 29 -> width 2 again
])
def test_compiled_and_parallel_peel_match_the_interpreter_bit_for_bit(
        name, steps, shape):
    alg = get_algorithm(name)
    p, q, r = shape
    A = random_matrix(p, q, 1)
    B = random_matrix(q, r, 2)
    ref = multiply(A, B, alg, steps=steps)
    assert np.array_equal(
        cbackend.compile_chains(name).multiply(A, B, steps=steps), ref)
    for workers in (1, 2, 3, 4):
        with WorkerPool(workers) as pool:
            for scheme in ("dfs", "bfs"):
                C = multiply_parallel(A, B, alg, steps=steps, scheme=scheme,
                                      pool=pool, threads=workers)
                assert np.array_equal(C, ref), (scheme, workers)


# =========================================================================
# no buffer grows with the core
# =========================================================================
def _plans():
    for scheme in ("sequential", "dfs", "bfs", "hybrid"):
        yield Plan("strassen", 1, scheme=scheme,
                   threads=1 if scheme == "sequential" else 2)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("plan", list(_plans()), ids=lambda pl: pl.describe())
def test_peeling_costs_an_arena_one_fixed_chunk_at_most(plan, dtype, pool):
    """The footprint of a peeled shape exceeds that of its divisible core
    by the strip chunk at most (nothing at all where the compiled kernels
    serve), the arena it sizes does not overflow, and a warm call stays
    under the 1 MiB allocation probe."""
    p, q, r = 1025, 515, 1027
    extra = (plan_footprint(plan, p, q, r, dtype, dtype)
             - plan_footprint(plan, p - 1, q - 1, r - 1, dtype, dtype))
    assert 0 <= extra <= STRIP_SCRATCH_BYTES + 2 * ALIGNMENT
    if cbackend.chains_fused(dtype):
        assert extra == 0       # the strip rides in form_C
    A = random_matrix(p, q, 3, dtype=dtype)
    B = random_matrix(q, r, 4, dtype=dtype)
    out = np.empty((p, r), dtype=dtype)
    ws = build_workspace(plan, p, q, r, dtype, dtype)
    execute_plan(plan, A, B, pool=pool, out=out, workspace=ws)
    with track_allocations() as rep:
        execute_plan(plan, A, B, pool=pool, out=out, workspace=ws)
    assert ws.overflow_allocations == 0
    assert rep.peak_bytes < 1 << 20
    exact = A.astype("float64") @ B.astype("float64")
    rel = np.linalg.norm(out - exact) / np.linalg.norm(exact)
    assert rel <= error_bound(get_algorithm("strassen"), 1, q, dtype)
