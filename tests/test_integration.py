"""End-to-end integration tests across the whole public API."""

import numpy as np
import pytest

import repro
from repro.bench.runner import run_sequential
from repro.bench import workloads
from repro.util.matrices import random_matrix


class TestPublicMultiply:
    @pytest.mark.parametrize("scheme", ["dfs", "bfs", "hybrid"])
    def test_parallel_path(self, scheme):
        A = random_matrix(120, 120, 6)
        B = random_matrix(120, 120, 7)
        C = repro.multiply(A, B, parallel=True, scheme=scheme, threads=2, steps=2)
        np.testing.assert_allclose(C, A @ B, rtol=1e-10, atol=1e-10)


class TestComposed54:
    def test_composed_schedule_on_rectangular(self):
        sched = [repro.get_algorithm("s336"), repro.get_algorithm("s363"),
                 repro.get_algorithm("s633")]
        A = random_matrix(111, 67, 0)
        B = random_matrix(67, 90, 1)
        C = repro.multiply_schedule(A, B, sched)
        np.testing.assert_allclose(C, A @ B, rtol=1e-8, atol=1e-8)

    def test_exponent_bookkeeping(self):
        from repro.core.cost import composed_exponent

        r = repro.get_algorithm("s336").rank
        omega = composed_exponent([(3, 3, 6), (3, 6, 3), (6, 3, 3)], [r] * 3)
        assert 2.5 < omega < 3.0


class TestCutoffIntegration:
    def test_measured_curve_drives_steps(self):
        from repro.bench.machine import measure_gemm_curve, recommended_steps

        curve = measure_gemm_curve([16, 32, 64, 128], threads=1, trials=1)
        s = recommended_steps(curve, 128, 2, 1 / 7, max_steps=3)
        assert 0 <= s <= 3

    def test_cutoff_policy_applies(self):
        alg = repro.get_algorithm("strassen")
        A = random_matrix(64, 64, 1)
        C = repro.multiply_reference(
            A, A, alg, cutoff=repro.CutoffPolicy(max_steps=2, min_dim=16)
        )
        np.testing.assert_allclose(C, A @ A, rtol=1e-10, atol=1e-10)


class TestAccuracyStory:
    def test_exact_vs_apa_error_separation(self):
        """Exact fast algorithms sit at rounding error; APA algorithms are
        visibly approximate (paper Section 2.2.3)."""
        A = random_matrix(81, 54, 2)
        B = random_matrix(54, 60, 3)
        ref = A @ B
        exact_err = []
        for name in ("strassen", "s233", "s333"):
            C = repro.multiply(A, B, algorithm=name, steps=2)
            exact_err.append(np.linalg.norm(C - ref) / np.linalg.norm(ref))
        bini = repro.multiply(A, B, algorithm="bini322", steps=1)
        apa_err = np.linalg.norm(bini - ref) / np.linalg.norm(ref)
        assert max(exact_err) < 1e-10 < apa_err


class TestRunnerIntegration:
    def test_mini_fig5_run(self):
        algs = {
            "dgemm": None,
            "strassen": repro.get_algorithm("strassen"),
            "s424": repro.get_algorithm("s424"),
        }
        rows = run_sequential(algs, [workloads.square(128)], step_options=(1,),
                              trials=1, quiet=True)
        assert len(rows) == 3
