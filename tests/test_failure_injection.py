"""Failure-injection tests: errors must surface, not corrupt results."""

import numpy as np
import pytest

from repro.algorithms import classical, get_algorithm, strassen
from repro.codegen import cbackend, compile_algorithm
from repro.core.algorithm import FastAlgorithm
from repro.core.recursion import multiply
from repro.parallel import WorkerPool, multiply_parallel
from repro.parallel.pool import parallel_axpy
from repro.util.matrices import random_matrix


class TestBrokenAlgorithms:
    def _broken(self):
        s = strassen()
        U = np.array(s.U)
        U[:, 3] = 0.0  # dead product column
        return FastAlgorithm(2, 2, 2, U, s.V, s.W, name="dead-column", apa=True)

    def test_step_rejects_dead_column(self):
        """The library would read the slab row of an empty chain, which
        nothing writes: the descriptor refuses the algorithm, so the
        sequential product raises instead of returning garbage."""
        with pytest.raises(ValueError, match="degenerate rank column"):
            cbackend.descriptor(self._broken())
        if cbackend.chains_fused("float64"):
            A = random_matrix(8, 8, 0)
            with pytest.raises(ValueError, match="degenerate rank column"):
                compile_algorithm(self._broken())(A, A)

    def test_interpreter_skips_dead_column(self):
        """The reference executor tolerates dead columns (it just computes a
        wrong product for a non-exact algorithm -- no crash)."""
        A = random_matrix(8, 8, 0)
        C = multiply(A, A, self._broken(), steps=1)
        assert C.shape == (8, 8)
        assert np.isfinite(C).all()

    def test_validate_catches_wrong_coefficient(self):
        s = strassen()
        W = np.array(s.W)
        W[0, 0] = -1.0
        bad = FastAlgorithm(2, 2, 2, s.U, s.V, W, name="bad")
        with pytest.raises(ValueError, match="residual"):
            bad.validate()

    def test_multiply_with_wrong_algorithm_is_detectably_wrong(self):
        s = strassen()
        W = np.array(s.W)
        W[0, 0] = -1.0
        bad = FastAlgorithm(2, 2, 2, s.U, s.V, W, name="bad", apa=True)
        A = random_matrix(16, 16, 1)
        C = multiply(A, A, bad, steps=1)
        assert np.linalg.norm(C - A @ A) / np.linalg.norm(A @ A) > 1e-3


class TestWorkerFailures:
    @pytest.mark.skipif(not cbackend.available(),
                        reason="no working C compiler")
    def test_leaf_exception_propagates_through_bfs(self, monkeypatch):
        """A failing leaf multiply must raise at the barrier, not deadlock
        or silently return garbage."""
        class Boom(RuntimeError):
            pass

        def bad_leaf(self, *args):
            raise Boom("leaf failure")

        monkeypatch.setattr(cbackend.CompiledChains, "step", bad_leaf)
        A = random_matrix(16, 17, 0)
        B = random_matrix(17, 16, 1)
        with WorkerPool(2) as pool:
            with pytest.raises(Boom, match="leaf failure"):
                multiply_parallel(A, B, strassen(), steps=1, scheme="bfs",
                                  pool=pool)

    def test_parallel_axpy_bad_shapes(self):
        out = np.empty((4, 4))
        with WorkerPool(2) as pool:
            with pytest.raises(Exception):
                parallel_axpy(pool, out, np.ones((3, 3)), 1.0)

    def test_pool_survives_failed_group(self):
        with WorkerPool(2) as pool:
            g = pool.group()
            g.run(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                g.wait()
            # pool still usable
            assert pool.map_wait(lambda x: x, [1, 2]) == [1, 2]


class TestInputValidation:
    def test_nan_inputs_propagate_not_crash(self):
        A = random_matrix(8, 8, 0)
        A[0, 0] = np.nan
        C = multiply(A, A, strassen(), steps=1)
        assert np.isnan(C).any()

    def test_empty_dims_follow_numpy_semantics(self):
        C = multiply(np.ones((0, 4)), np.ones((4, 2)), strassen())
        assert C.shape == (0, 2)

    def test_compiled_algorithm_rejects_bad_inner(self):
        f = compile_algorithm(classical(2, 2, 2))
        with pytest.raises(ValueError):
            f(np.ones((4, 4)), np.ones((5, 4)))


class TestSearchFailureModes:
    def test_infeasible_rank_returns_best_effort(self):
        from repro.search import AlsOptions, search

        out = search(2, 2, 2, 3, starts=2, seed=0,
                     options=AlsOptions(max_sweeps=100))
        assert out is not None
        assert out.rel_residual > 0.1  # cannot fit rank 3
        assert out.exact is False

    def test_driver_cli_bad_args(self):
        from repro.search.driver import main

        with pytest.raises(SystemExit):
            main(["--rank", "7", "--out", "/tmp/x.json"])  # missing --base


class TestCatalogFailures:
    def test_unknown_name_message(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            get_algorithm("fastmagic")

    def test_nonexistent_permutation(self):
        with pytest.raises(KeyError, match="only the classical fallback"):
            get_algorithm("s999")
