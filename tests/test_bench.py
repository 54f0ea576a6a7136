"""Tests for the benchmark harness (repro.bench)."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.algorithms import get_algorithm, strassen
from repro.bench import machine, metrics, workloads
from repro.bench.runner import (
    check_accuracy,
    print_table,
    run_parallel,
    run_sequential,
    speedup_over,
    winners_by_workload,
)
from repro.core.recursion import multiply
from repro.core.workspace import Workspace


class TestMetrics:
    def test_effective_flops_equation3(self):
        # 2PQR - PR
        assert metrics.effective_flops(10, 20, 30) == 2 * 10 * 20 * 30 - 10 * 30

    def test_effective_gflops(self):
        gf = metrics.effective_gflops(1000, 1000, 1000, 1.0)
        assert gf == pytest.approx((2e9 - 1e6) * 1e-9)

    def test_median_time_positive(self):
        t = metrics.median_time(lambda: sum(range(1000)), trials=3, warmup=1)
        assert t > 0

    def test_time_multiply(self):
        A = np.random.rand(64, 64)
        sec, gf = metrics.time_multiply(lambda a, b: a @ b, A, A, trials=2)
        assert sec > 0 and gf > 0


class TestWorkloads:
    def test_square(self):
        wl = workloads.square(32)
        assert (wl.p, wl.q, wl.r) == (32, 32, 32)

    def test_outer(self):
        wl = workloads.outer(100, 16)
        assert (wl.p, wl.q, wl.r) == (100, 16, 100)

    def test_ts_square(self):
        wl = workloads.ts_square(100, 24)
        assert (wl.p, wl.q, wl.r) == (100, 24, 24)

    def test_matrices_deterministic(self):
        wl = workloads.square(16, seed=5)
        A1, B1 = wl.matrices()
        A2, B2 = wl.matrices()
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(B1, B2)

    def test_label(self):
        assert workloads.outer(64, 16).label == "64x16x64"

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert workloads.scaled(100) == 50
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.001")
        assert workloads.scaled(100) == 8  # floor

    def test_sweeps_nonempty(self):
        assert workloads.fig5_square_sweep()
        assert workloads.fig5_outer_sweep()
        assert workloads.fig5_ts_sweep()
        assert workloads.fig7_outer_sweep()
        assert workloads.fig7_ts_sweep()


class TestMachineModel:
    def _curve(self):
        # synthetic ramp-up: 50% at 64, 90% at 256, flat beyond
        return machine.GemmCurve(
            sizes=[32, 64, 128, 256, 512, 1024],
            gflops=[5.0, 10.0, 16.0, 18.0, 19.5, 20.0],
        )

    def test_interpolation(self):
        c = self._curve()
        assert c.at(32) == 5.0
        assert c.at(48) == pytest.approx(7.5)
        assert c.at(4096) == 20.0  # clamped

    def test_peak_and_flat(self):
        c = self._curve()
        assert c.peak == 20.0
        assert c.flat_size(0.9) == 256

    def test_should_recurse_on_flat_part(self):
        c = self._curve()
        # 1024 -> 512: drop 20/19.5 - 1 ~= 2.6% < Strassen's 14%: recurse
        assert machine.should_recurse(c, 1024, 2, 1 / 7)

    def test_should_not_recurse_on_ramp(self):
        c = self._curve()
        # 128 -> 64: drop 16/10 - 1 = 60% > 14%: do not recurse
        assert not machine.should_recurse(c, 128, 2, 1 / 7)

    def test_recommended_steps(self):
        c = self._curve()
        s = machine.recommended_steps(c, 2048, 2, 1 / 7, max_steps=3)
        assert 1 <= s <= 3
        assert machine.recommended_steps(c, 64, 2, 1 / 7) == 0

    def test_measure_gemm_curve_real(self):
        c = machine.measure_gemm_curve([32, 64], threads=1, trials=1)
        assert len(c.gflops) == 2 and all(g > 0 for g in c.gflops)

    def test_measure_shapes(self):
        c = machine.measure_gemm_curve([48], threads=1, shape="outer",
                                       fixed=16, trials=1)
        assert c.shape == "outer"
        c = machine.measure_gemm_curve([48], threads=1, shape="ts",
                                       fixed=16, trials=1)
        assert len(c.gflops) == 1

    def test_measure_bad_shape(self):
        with pytest.raises(ValueError):
            machine.measure_gemm_curve([32], shape="diag", trials=1)

    def test_measure_dtype_and_budget(self, monkeypatch):
        c = machine.measure_gemm_curve([16, 32], dtype="float32", trials=1)
        assert c.dtype == "float32" and all(g > 0 for g in c.gflops)
        # a budget buys trials, between one and 16 x trials per size
        # (after the first run, which sizes them), and the best one counts
        runs = []
        monkeypatch.setattr(machine.timeit, "timeit",
                            lambda fn, number: 1e-3)
        monkeypatch.setattr(
            machine.timeit, "repeat", lambda fn, number, repeat:
            runs.append(repeat) or ([3e-3, 2e-3, 9e-4] * repeat)[:repeat])
        slow = machine.measure_gemm_curve([16], trials=2, budget_s=1e-4)
        machine.measure_gemm_curve([16], trials=2, budget_s=0.0105)
        best = machine.measure_gemm_curve([16], trials=2, budget_s=1.0)
        assert runs == [1, 10, 32]
        assert slow.gflops[0] == pytest.approx(
            metrics.effective_gflops(16, 16, 16, 1e-3))
        assert best.gflops[0] == pytest.approx(
            metrics.effective_gflops(16, 16, 16, 9e-4))

    def test_seconds_reads_the_cube_and_carries_the_ramp_on(self):
        c = machine.GemmCurve([256, 512, 1024], [40.0, 50.0, 56.0])
        assert c.seconds(512, 512, 512) == pytest.approx(2 * 512**3 / 50e9)
        # a 2048 x 64 x 1024 gemm is read at the 512 cube it fills
        assert c.seconds(2048, 64, 1024) == pytest.approx(2 * 512**3 / 50e9)
        # past the top: 1/rate = a + b/n through (512, 50) and (1024, 56)
        # -- each doubling closes half of what is left to 1/(2/56 - 1/50)
        assert 2 * 2048**3 / c.seconds(2048, 2048, 2048) == pytest.approx(
            1e9 / (1 / 56 - (1 / 50 - 1 / 56) / 2))
        assert 2 * 1e15 / c.seconds(1e5, 1e5, 1e5) == pytest.approx(
            1e9 / (2 / 56 - 1 / 50), rel=2e-2)
        assert c.at(4096) == 56.0                       # the curve itself
        # a lone point is held flat; a top that fell is interference (it
        # only ever slows a gemm down): held at the higher of the two
        for flat, rate in ((machine.GemmCurve([1024], [50.0]), 50e9),
                           (machine.GemmCurve([512, 1024], [56.0, 50.0]),
                            56e9)):
            assert flat.seconds(4096, 4096, 4096) == pytest.approx(
                2 * 4096**3 / rate)
        assert flat.seconds(1024, 1024, 1024) == pytest.approx(
            2 * 1024**3 / 50e9)                         # measured: as is

    def test_a_stalled_low_point_is_not_a_ramp(self):
        """Regression: (512, 0.3) then (1024, 40) -- a 2-thread gemm that
        waited for its second vCPU, then one that did not -- put the ramp's
        asymptote ``1/r2 - slope/n2`` below zero, and every gemm past 1024
        was priced at a negative rate (dgemm(2t) at 2048^3: -100 ms).  Such
        a curve holds its top point's rate."""
        stalled = machine.GemmCurve([512, 1024], [0.3, 40.0])
        for n in (1025, 2048, 4096, 1e5):
            assert stalled.seconds(n, n, n) == pytest.approx(
                2 * n**3 / 40e9)
        # every monotone curve whose asymptote is positive extrapolates as
        # it did: through 1/rate = 1/r2 + slope (1/n - 1/n2)
        for sizes, rates in (([256, 512, 1024], [40.0, 50.0, 56.0]),
                             ([512, 1024], [20.0, 38.0]),
                             ([64, 512, 1024], [5.0, 30.0, 31.0])):
            curve = machine.GemmCurve(sizes, rates)
            (n1, n2), (r1, r2) = sizes[-2:], rates[-2:]
            slope = (1 / r1 - 1 / r2) / (1 / n1 - 1 / n2)
            assert 1 / r2 - slope / n2 > 0
            for n in (1500, 2048, 8192):
                want = 2 * n**3 / (1e9 / (1 / r2 + slope * (1 / n - 1 / n2)))
                assert curve.seconds(n, n, n) == pytest.approx(want,
                                                               rel=1e-12)

    def test_recommended_steps_agree_with_the_cost_model(self, use_machine):
        """With additions and fixed costs out of the picture the seconds
        model *is* the Section 3.4 rule: same curve, same step count."""
        from repro.core.cost import plan_cost

        sizes = [32, 64, 128, 256, 512, 1024, 2048]
        use_machine(gflops=[1.0, 2.0, 4.0, 16.0, 18.0, 19.5, 20.0],
                    sizes=sizes, add_gbs=1e9)
        curve = machine.calibration("float64", 1).gemm
        alg = get_algorithm("strassen")
        for n, want in ((256, 0), (512, 1), (1024, 2), (2048, 3), (4096, 3)):
            model = min(range(4), key=lambda s: plan_cost(
                alg if s else None, n, n, n, s))
            assert model == want
            assert machine.recommended_steps(curve, n, 2, 1 / 7,
                                             max_steps=3) == want


class TestCalibration:
    """The measuring ``machine.calibration`` (the rest of the suite runs on
    conftest's synthetic machine)."""

    @pytest.fixture
    def calibrate(self, real_calibration):
        return real_calibration

    def test_measured_once_then_served_from_memory_and_disk(
            self, calibrate, monkeypatch, tmp_path):
        cal = calibrate("float64", 1)
        assert cal.gemm.sizes == list(machine.CALIBRATION_SIZES)
        assert min(cal.gemm.gflops) > 0 and cal.add_gbs > 0
        assert cal.call_s > 0 and cal.task_s == 0.0
        # the per-product fixed cost is the served executor's: the
        # interpreter's one-step Strassen where arithmetic is negligible
        alg = strassen()
        A, C = np.ones((16, 16)), np.empty((16, 16))
        ws = Workspace.for_recursion([alg.base_case], 16, 16, 16,
                                     algorithms=[alg])
        direct = metrics.median_time(
            lambda: multiply(A, A, alg, steps=1, out=C, workspace=ws),
            trials=5, warmup=2) / alg.rank
        assert direct / 4 <= cal.call_s <= direct * 4
        assert calibrate("float64", 1) is cal
        assert calibrate("int64", 1) is cal     # only float32 is its own
        files = list(tmp_path.iterdir())
        assert [f.name for f in files] == [
            f"calibration-{machine.fingerprint_digest()}-float64-1t.json"]
        # a new process: no measurement, the same numbers
        machine._calibrations.clear()
        monkeypatch.setattr(machine, "measure_calibration",
                            lambda *a: pytest.fail("measured again"))
        again = calibrate("float64", 1)
        assert again is not cal and asdict(again) == asdict(cal)

    def test_curve_grows_once_for_callers_that_reach_past_it(
            self, calibrate, monkeypatch, tmp_path):
        """The 1024^3 point costs as much as the rest: measured when a
        shape that large is priced, then kept (in memory and on disk)."""
        swept = []

        def sweep(sizes, threads, dtype, **trials_or_budget):
            swept.append(list(sizes))
            return machine.GemmCurve(list(sizes), [7.0 + n for n in sizes],
                                     threads=threads, dtype=dtype)
        monkeypatch.setattr(machine, "measure_gemm_curve", sweep)
        base = calibrate("float32", 1, volume=400**3)
        assert base.gemm.sizes == list(machine.CALIBRATION_SIZES)
        assert calibrate("float32", 1, volume=512**3) is base
        grown = calibrate("float32", 1, volume=1024 * 600 * 400)
        assert grown is not base
        assert grown.gemm.sizes == [*machine.CALIBRATION_SIZES,
                                    machine.CALIBRATION_REACH]
        assert (grown.gemm.gflops[:-1], grown.add_gbs, grown.call_s) == (
            base.gemm.gflops, base.add_gbs, base.call_s)
        for volume in (0, 600**3, 1 << 60):
            assert calibrate("float32", 1, volume=volume) is grown
        assert swept == [list(machine.CALIBRATION_SIZES),
                         [machine.CALIBRATION_REACH]]
        machine._calibrations.clear()
        assert asdict(calibrate("float32", 1)) == asdict(grown)
        assert len(swept) == 2 and len(list(tmp_path.iterdir())) == 1

    def test_unreadable_file_is_measured_over(self, calibrate, tmp_path):
        path = tmp_path / (f"calibration-{machine.fingerprint_digest()}"
                           f"-float32-1t.json")
        zero = asdict(machine.Calibration(
            "float32", 1, machine.GemmCurve([64], [0.0]), 1.0, 0.0, 0.0))
        for junk in ("{ not json", json.dumps(zero)):
            machine._calibrations.clear()
            path.write_text(junk)
            cal = calibrate("float32", 1)
            assert cal.dtype == "float32" and min(cal.gemm.gflops) > 0
            assert asdict(machine.Calibration.from_dict(
                json.loads(path.read_text()))) == asdict(cal)

    def test_unwritable_cache_dir_costs_persistence_only(
            self, calibrate, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "sub"))
        cal = calibrate("float32", 1)
        assert calibrate("float32", 1) is cal

    def test_threaded_calibration_measures_the_pool(self, calibrate):
        cal = calibrate("float32", 2)
        assert cal.threads == 2 and cal.gemm.threads == 2
        assert cal.task_s >= 0.0 and cal.add_gbs > 0


class TestRunner:
    def _algs(self):
        return {"dgemm": None, "strassen": strassen()}

    def test_run_sequential_rows(self):
        rows = run_sequential(
            self._algs(), [workloads.square(96)], step_options=(1,),
            trials=1, quiet=True,
        )
        assert len(rows) == 2
        assert {r.algorithm for r in rows} == {"dgemm", "strassen"}
        assert all(r.gflops > 0 for r in rows)

    def test_run_parallel_rows(self):
        rows = run_parallel(
            self._algs(), [workloads.square(96)], cores=2,
            schemes=("hybrid",), step_options=(1,), trials=1, quiet=True,
        )
        assert len(rows) == 2
        assert all(r.gflops > 0 for r in rows)

    def test_winners(self):
        rows = run_sequential(
            self._algs(), [workloads.square(64)], step_options=(1,),
            trials=1, quiet=True,
        )
        w = winners_by_workload(rows)
        assert set(w) == {"64x64x64"}
        assert w["64x64x64"] in ("dgemm", "strassen")

    def test_speedup_over(self):
        rows = run_sequential(
            self._algs(), [workloads.square(64)], step_options=(1,),
            trials=1, quiet=True,
        )
        sp = speedup_over(rows, "dgemm")
        assert ("strassen", "64x64x64") in sp
        assert sp[("strassen", "64x64x64")] > 0

    def test_check_accuracy_flags_apa(self):
        errs = check_accuracy(
            {"strassen": strassen(), "bini": get_algorithm("bini322")},
            workloads.square(36),
        )
        assert errs["strassen"] < 1e-10
        assert errs["bini"] > 1e-10

    def test_print_table_output(self, capsys):
        rows = run_sequential(
            self._algs(), [workloads.square(48)], step_options=(1,),
            trials=1, quiet=True,
        )
        print_table(rows, title="unit test")
        out = capsys.readouterr().out
        assert "unit test" in out and "strassen" in out
