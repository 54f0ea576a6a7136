"""Dynamic peeling (paper Section 3.5) costs an arena one fixed chunk.

Whether every executor computes a peeled product is the oracle's
(``test_oracle.py`` draws the residues 0, 1 and m-1 in every dimension);
what is left here is the footprint: no buffer grows with the core.
"""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.codegen import cbackend
from repro.core.stability import error_bound
from repro.core.workspace import ALIGNMENT, track_allocations
from repro.parallel.pool import WorkerPool
from repro.tuner.dispatch import build_workspace, execute_plan, plan_footprint
from repro.tuner.space import Plan
from repro.util.matrices import STRIP_SCRATCH_BYTES, random_matrix


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as p:
        yield p


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
