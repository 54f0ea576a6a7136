"""Tests for the DFS / BFS / HYBRID parallel schemes (Section 4)."""

import threading

import numpy as np
import pytest

from repro.algorithms import strassen
from repro.codegen import cbackend
from repro.parallel import SCHEMES, WorkerPool, blas, multiply_parallel
from repro.parallel.trace import TracedPool
from repro.util.matrices import random_matrix


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as p:
        yield p


class TestValidation:
    def test_bad_scheme(self, pool):
        with pytest.raises(ValueError, match="scheme"):
            multiply_parallel(np.ones((4, 4)), np.ones((4, 4)), strassen(),
                              scheme="magic", pool=pool)

    def test_dim_mismatch(self, pool):
        with pytest.raises(ValueError):
            multiply_parallel(np.ones((4, 3)), np.ones((4, 4)), strassen(),
                              pool=pool)


needs_step = pytest.mark.skipif(
    not (cbackend.available() and blas.matmul_kernels("double")),
    reason="no working C compiler or no vendor cblas")


@needs_step
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
# 96 splits evenly twice; 95 x 83 x 101 peels every dimension at both
# levels; 3 x 3 x 3 splits once and its 1 x 1 blocks cannot split again
@pytest.mark.parametrize("shape", [(96, 96, 96), (95, 83, 101), (3, 3, 3)])
@pytest.mark.parametrize("threads", [2, 3])
def test_every_schedule_returns_the_sequential_steps_bits(
        pool, scheme, steps, dtype, shape, threads):
    p, q, r = shape
    A = random_matrix(p, q, 8, dtype=dtype)
    B = random_matrix(q, r, 9, dtype=dtype)
    with blas.blas_threads(1):
        ref = cbackend.compile_chains("strassen", dtype=dtype).multiply(
            A, B, steps=steps)
    C = multiply_parallel(A, B, strassen(), steps=steps, scheme=scheme,
                          pool=pool, threads=threads)
    assert C.dtype == ref.dtype and np.array_equal(C, ref)


@needs_step
@pytest.mark.skipif(not blas.is_controllable(),
                    reason="the vendor BLAS thread count is not observable")
@pytest.mark.parametrize("threads", [
    2, 3, pytest.param(4, marks=pytest.mark.multicore)])
@pytest.mark.parametrize("steps", [1, 2])
def test_remainder_leaves_are_r_to_the_l_mod_p(monkeypatch, threads, steps):
    """Section 4.3 at leaf granularity: children that fill whole waves of
    P tasks run as tasks, the rest are expanded again, and exactly
    ``R^L mod P`` leaves are left for the P-thread remainder of HYBRID;
    BFS runs those as tasks too.  Every leaf is computed exactly once."""
    R, caller = strassen().rank, threading.current_thread().name
    ran = []
    step = cbackend.CompiledChains.step

    def record(self, kernels, S, T, left, M, region):
        ran.append((threading.current_thread().name, blas.get_threads(),
                    left))
        return step(self, kernels, S, T, left, M, region)

    monkeypatch.setattr(cbackend.CompiledChains, "step", record)
    A = random_matrix(64, 64, 10)
    for scheme, batch in (("hybrid", "bfs_batch"), ("bfs", "leaf")):
        ran.clear()
        with TracedPool(threads) as traced:
            C = multiply_parallel(A, A, strassen(), steps=steps,
                                  scheme=scheme, pool=traced,
                                  threads=threads)
        np.testing.assert_allclose(C, A @ A, atol=1e-10)
        assert sum(R ** left for *_, left in ran) == R ** steps
        wide = [left for name, nt, left in ran if nt == threads]
        assert all(name == caller for name, nt, _ in ran if nt == threads)
        assert len(wide) == (R ** steps % threads if scheme == "hybrid"
                             else 0), scheme
        assert wide == [0] * len(wide)          # leaves, not subtrees
        tasks = [ev for ev in traced.trace.events
                 if ev.label == f"{scheme}.{batch}"]
        assert len(tasks) == len(ran) - len(wide)


@needs_step
@pytest.mark.skipif(
    not (blas.batch_available() and blas.is_controllable()),
    reason="no vendor batched gemm, or its thread count is not settable")
@pytest.mark.parametrize("scheme,steps,n,vendor", [
    ("bfs", 1, 256, 7), ("hybrid", 1, 256, 6),
    # odd and peeled: the left-over node's 128^3 leaves are the wave
    ("hybrid", 2, 513, 6)])
def test_leaf_waves_above_the_guard_are_vendor_batches(
        monkeypatch, pool, scheme, steps, n, vendor):
    """Leaves above the vendor's crash guard run as one vendor batched
    gemm per wave: bit-identical to the same call with the vendor batch
    switched off, and every leaf exactly once -- batched leaves plus the
    leaves under the pool's (and the remainder's) steps are ``R^L``."""
    R = strassen().rank
    ran, batched = [], []
    step, gemm_batch = cbackend.CompiledChains.step, blas.gemm_batch

    def record(self, kernels, S, T, left, M, region):
        ran.append(left)
        return step(self, kernels, S, T, left, M, region)

    def spy(S, T, M):
        batched.append(gemm_batch(S, T, M))
        return batched[-1]

    monkeypatch.setattr(cbackend.CompiledChains, "step", record)
    A, B = random_matrix(n, n, 11), random_matrix(n, n, 12)
    results = []
    for vendor_on in (True, False):
        ran.clear()
        monkeypatch.setattr(blas, "gemm_batch",
                            spy if vendor_on else lambda S, T, M: 0)
        results.append(multiply_parallel(A, B, strassen(), steps=steps,
                                         scheme=scheme, pool=pool,
                                         threads=2))
        leaves = sum(R ** left for left in ran)
        assert leaves + (sum(batched) if vendor_on else 0) == R ** steps
    assert batched == [vendor]
    assert np.array_equal(results[0], results[1])
    np.testing.assert_allclose(results[0], A @ B, atol=1e-9)
