"""Tests for the parallel substrate: blas control, pool, gemm, add."""

import numpy as np
import pytest

from repro.parallel import blas
from repro.parallel.add import measure_stream, stream_triad
from repro.parallel.gemm import dgemm, tiled_gemm
from repro.parallel.pool import (
    WorkerPool,
    _row_slabs,
    available_cores,
    parallel_axpy,
    parallel_combine,
    parallel_copy,
    resolve_threads,
)
from repro.util.matrices import random_matrix


class TestBlasControl:
    def test_controllable_on_this_numpy(self):
        """The bundled OpenBLAS exposes thread control; if this fails the
        schemes degrade gracefully, but we want to know."""
        assert blas.is_controllable()

    def test_get_set_roundtrip(self):
        old = blas.get_threads()
        try:
            blas.set_threads(1)
            assert blas.get_threads() == 1
            blas.set_threads(2)
            assert blas.get_threads() == 2
        finally:
            blas.set_threads(old)

    def test_context_manager_restores(self):
        old = blas.get_threads()
        with blas.blas_threads(1):
            assert blas.get_threads() == 1
        assert blas.get_threads() == old

    def test_context_manager_restores_on_error(self):
        old = blas.get_threads()
        with pytest.raises(RuntimeError):
            with blas.blas_threads(1):
                raise RuntimeError("boom")
        assert blas.get_threads() == old

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            blas.set_threads(0)

    def test_sequential_alias(self):
        with blas.sequential():
            assert blas.get_threads() == 1


class TestPool:
    def test_available_cores_positive(self):
        assert available_cores() >= 1

    def test_map_wait_ordered(self):
        with WorkerPool(2) as pool:
            out = pool.map_wait(lambda x: x * x, range(10))
        assert out == [x * x for x in range(10)]

    def test_taskgroup_barrier(self):
        with WorkerPool(2) as pool:
            g = pool.group()
            acc = []
            for i in range(5):
                g.run(acc.append, i)
            g.wait()
            assert sorted(acc) == [0, 1, 2, 3, 4]

    def test_exceptions_propagate(self):
        def bad():
            raise ValueError("worker failure")

        with WorkerPool(2) as pool:
            g = pool.group()
            g.run(bad)
            with pytest.raises(ValueError, match="worker failure"):
                g.wait()

    def test_group_reusable_after_wait(self):
        with WorkerPool(2) as pool:
            g = pool.group()
            g.run(lambda: 1)
            assert g.wait() == [1]
            g.run(lambda: 2)
            assert g.wait() == [2]

    def test_wait_drains_all_futures_on_exception(self):
        """Regression: ``wait()`` used to abandon the remaining futures as
        soon as one raised, leaking "exception was never retrieved"
        warnings and leaving ``_futures`` populated -- a reused group then
        re-raised a *stale* exception on its next barrier."""
        import threading

        release = threading.Event()
        finished = []

        def slow_ok(i):
            release.wait(5.0)
            finished.append(i)
            return i

        def bad():
            raise RuntimeError("first failure")

        with WorkerPool(2) as pool:
            g = pool.group()
            g.run(bad)
            for i in range(4):
                g.run(slow_ok, i)
            release.set()
            with pytest.raises(RuntimeError, match="first failure"):
                g.wait()
            # the barrier really waited for everyone, then forgot them
            assert sorted(finished) == [0, 1, 2, 3]
            assert g._futures == []
            # and the group is reusable with no stale exception
            g.run(lambda: 99)
            assert g.wait() == [99]

    def test_wait_raises_first_exception_in_submission_order(self):
        import threading

        gate = threading.Event()

        def fail_late():
            gate.wait(5.0)
            raise ValueError("submitted first")

        def fail_fast():
            raise KeyError("submitted second")

        with WorkerPool(2) as pool:
            g = pool.group()
            g.run(fail_late)
            g.run(fail_fast)
            gate.set()
            with pytest.raises(ValueError, match="submitted first"):
                g.wait()

    def test_resolve_threads(self):
        assert resolve_threads(None) == available_cores()
        assert resolve_threads(3) == 3
        assert type(resolve_threads(np.int64(3))) is int
        assert resolve_threads(np.uint8(2)) == 2
        for bad in (0, -1, 2.5, 2.0, True, np.True_, np.int32(0), "4"):
            with pytest.raises(ValueError, match="threads"):
                resolve_threads(bad)

    def test_row_slabs_cover_exactly(self):
        for nrows in (1, 2, 7, 100):
            for parts in (1, 2, 3, 8):
                slabs = _row_slabs(nrows, parts)
                covered = []
                for sl in slabs:
                    covered.extend(range(sl.start, sl.stop))
                assert covered == list(range(nrows))


class TestParallelKernels:
    def test_parallel_copy(self):
        src = random_matrix(101, 67, 0)
        dst = np.empty_like(src)
        with WorkerPool(2) as pool:
            parallel_copy(pool, dst, src)
        np.testing.assert_array_equal(dst, src)

    def test_parallel_axpy_matches_serial(self):
        x = random_matrix(101, 67, 1)
        out = random_matrix(101, 67, 2)
        expected = out + 2.5 * x
        with WorkerPool(2) as pool:
            parallel_axpy(pool, out, x, 2.5)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("coeffs", [
        [1.0, -1.0, 0.5],
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [-2.0, 3.0, 0.0],
    ])
    def test_parallel_combine_matches_serial(self, coeffs):
        blocks = [random_matrix(33, 21, i) for i in range(3)]
        expected = sum(c * b for c, b in zip(coeffs, blocks))
        if isinstance(expected, int):
            expected = np.zeros((33, 21))
        out = np.empty((33, 21))
        with WorkerPool(2) as pool:
            parallel_combine(pool, out, blocks, coeffs)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestGemm:
    def test_dgemm_matches_numpy(self):
        A = random_matrix(64, 48, 0)
        B = random_matrix(48, 56, 1)
        for t in (1, 2):
            np.testing.assert_allclose(dgemm(A, B, threads=t), A @ B, atol=1e-10)

    def test_tiled_gemm_matches(self):
        A = random_matrix(129, 65, 2)
        B = random_matrix(65, 77, 3)
        with WorkerPool(2) as pool:
            C = tiled_gemm(A, B, pool, threads=2)
        np.testing.assert_allclose(C, A @ B, atol=1e-10)

    def test_tiled_gemm_out_buffer(self):
        A = random_matrix(32, 32, 4)
        B = random_matrix(32, 32, 5)
        out = np.empty((32, 32))
        with WorkerPool(2) as pool:
            C = tiled_gemm(A, B, pool, threads=2, out=out)
        assert C is out
        np.testing.assert_allclose(out, A @ B, atol=1e-10)

    def test_tiled_gemm_single_thread_path(self):
        A = random_matrix(8, 8, 6)
        B = random_matrix(8, 8, 7)
        with WorkerPool(1) as pool:
            np.testing.assert_allclose(
                tiled_gemm(A, B, pool, threads=1), A @ B, atol=1e-10
            )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tiled_gemm_float32(self, threads):
        """Regression: C used to be allocated as bare float64 ``np.empty``,
        which broke/upcast ``np.dot(..., out=C)`` for float32 operands."""
        A = random_matrix(65, 33, 8, dtype=np.float32)
        B = random_matrix(33, 41, 9, dtype=np.float32)
        with WorkerPool(2) as pool:
            C = tiled_gemm(A, B, pool, threads=threads)
        assert C.dtype == np.float32
        np.testing.assert_allclose(C, A @ B, atol=1e-4)

    def test_dgemm_out(self):
        A = random_matrix(48, 32, 10)
        B = random_matrix(32, 40, 11)
        out = np.empty((48, 40))
        assert dgemm(A, B, threads=2, out=out) is out
        np.testing.assert_allclose(out, A @ B, atol=1e-10)


class TestDfsIsTheReferenceRecursion:
    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(3, 3, 3), (5, 7, 9), (6, 6, 6),
                                       (64, 64, 64)])
    def test_same_cutoff_same_bits_same_arena(self, shape, steps):
        """``scheme="dfs"`` stops splitting where the interpreter and
        ``dfs_footprint`` do (it used to descend onto 1-wide blocks):
        bit-equal products, and an arena sized for one fits the other."""
        from repro.algorithms import strassen
        from repro.core.recursion import multiply
        from repro.core.workspace import Workspace
        from repro.parallel.schedules import multiply_parallel

        p, q, r = shape
        alg = strassen()
        A = random_matrix(p, q, 12)
        B = random_matrix(q, r, 13)

        def arena():
            return Workspace.for_recursion([alg.base_case] * steps, p, q, r,
                                           algorithms=[alg] * steps)

        ref = multiply(A, B, alg, steps=steps, workspace=arena())
        ws = arena()
        with WorkerPool(2) as pool:
            got = multiply_parallel(A, B, alg, steps=steps, scheme="dfs",
                                    pool=pool, threads=2, workspace=ws)
        assert ws.overflow_allocations == 0
        assert np.array_equal(ref, got)


class TestStream:
    def test_triad_positive_bandwidth(self):
        with WorkerPool(2) as pool:
            bw = stream_triad(pool, 1, size_mb=8, repeats=3)
        assert bw > 0.1  # any machine moves >0.1 GiB/s

    def test_measure_stream_result(self):
        with WorkerPool(2) as pool:
            res = measure_stream(pool, [1, 2], size_mb=8)
        assert len(res.bandwidth_gib_s) == 2
        assert res.speedup()[0] == pytest.approx(1.0)
        eff = res.parallel_efficiency()
        assert eff[0] == pytest.approx(1.0)
        assert 0 < eff[1] <= 1.5  # bandwidth rarely scales superlinearly
