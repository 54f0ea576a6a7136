"""The peel oracle: dynamic peeling (paper Section 3.5), stated once.

Every driver reachable without the tuner -- interpreter, composed
schedule, the four parallel schemes, the generated module under each
addition strategy, the compiled chain driver -- multiplies one shared list
of shapes whose p, q and r each take the three residues that matter
(divisible by the base case, remainder 1, remainder base-1), in both
dtypes, with and without an arena.  The product must be within
``error_bound`` of a float64 reference, and an arena sized by the driver's
footprint must not overflow.
"""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.codegen import cbackend, compile_algorithm
from repro.codegen.strategies import STRATEGIES
from repro.core.recursion import multiply, multiply_schedule
from repro.core.stability import error_bound
from repro.core.workspace import (
    Workspace,
    bfs_footprint,
    cbackend_footprint,
    codegen_footprint,
    dfs_footprint,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.schedules import SCHEMES, multiply_parallel
from repro.util.matrices import random_matrix

NAME = "s334"  # <3,3,4>: remainder 1 != remainder base-1 in every dimension
ALG = get_algorithm(NAME)
STEPS = 1  # rank 30: a second step costs the pool-adder DFS seconds per case
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


def _parallel(scheme):
    if scheme == "dfs":
        nbytes = _dfs_bytes([ALG.base_case] * STEPS, [ALG] * STEPS)
    else:
        def nbytes(p, q, r, dt):
            return bfs_footprint(ALG, STEPS, p, q, r, dt, dt)
    return (lambda A, B, ws, pool: multiply_parallel(
        A, B, ALG, steps=STEPS, scheme=scheme, pool=pool, threads=2,
        workspace=ws)), nbytes


def _generated(strategy):
    return (lambda A, B, ws, pool: compile_algorithm(ALG, strategy)(
        A, B, steps=STEPS, workspace=ws)), (
        lambda p, q, r, dt: codegen_footprint(ALG, strategy, False,
                                              (p, q, r), dt, STEPS))


#: name -> (run(A, B, workspace, pool), arena bytes(p, q, r, dtype))
DRIVERS = {
    "interpreter": (
        lambda A, B, ws, pool: multiply(A, B, ALG, steps=STEPS, workspace=ws),
        _dfs_bytes([ALG.base_case] * STEPS, [ALG] * STEPS)),
    "schedule": (
        lambda A, B, ws, pool: multiply_schedule(A, B, SCHEDULE,
                                                 workspace=ws),
        _dfs_bytes([alg.base_case for alg in SCHEDULE])),
    **{scheme: _parallel(scheme) for scheme in SCHEMES},
    **{f"generated-{s}": _generated(s) for s in STRATEGIES},
    "compiled": (
        lambda A, B, ws, pool: cbackend.compile_chains(NAME).multiply(
            A, B, steps=STEPS, workspace=ws),
        lambda p, q, r, dt: cbackend_footprint(ALG, False, (p, q, r), dt,
                                               STEPS)),
}


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as p:
        yield p


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("arena", [False, True], ids=["heap", "arena"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("driver", DRIVERS)
def test_peel_oracle(driver, shape, arena, dtype, pool):
    if driver == "compiled" and not cbackend.available():
        pytest.skip("no C compiler")
    run, nbytes = DRIVERS[driver]
    p, q, r = shape
    A = random_matrix(p, q, p + q, dtype=dtype)
    B = random_matrix(q, r, q + r, dtype=dtype)
    ws = Workspace(nbytes(p, q, r, dtype)) if arena else None
    C = run(A, B, ws, pool)
    assert C.shape == (p, r) and C.dtype == np.dtype(dtype)
    exact = A.astype("float64") @ B.astype("float64")
    rel = np.linalg.norm(C.astype("float64") - exact) / np.linalg.norm(exact)
    assert rel <= error_bound(ALG, len(SCHEDULE), q, dtype)
    if ws is not None:
        assert ws.overflow_allocations == 0
