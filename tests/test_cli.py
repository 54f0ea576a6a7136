"""Tests for the ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest
from conftest import run_cli

from repro.cli import main


class TestList:
    def test_contains_core_rows(self):
        rc, text = run_cli("list")
        assert rc == 0
        for name in ("strassen", "winograd", "hk223", "s333"):
            assert name in text
        assert "APA" not in text  # hidden by default

    def test_apa_flag_adds_apa_rows(self):
        rc, text = run_cli("list", "--apa")
        assert rc == 0
        assert "bini322" in text and "schonhage333" in text

    def test_paper_rank_column_present(self):
        rc, text = run_cli("list")
        # the three documented fallbacks show paper rank != achieved rank
        row = next(ln for ln in text.splitlines() if ln.strip().startswith("s334"))
        assert " 30 " in row and " 29 " in row


class TestVerify:
    def test_all_catalog_entries_verify(self):
        rc, text = run_cli("verify")
        assert rc == 0
        assert "0 failures" in text

    def test_selected_names(self):
        rc, text = run_cli("verify", "strassen", "s333")
        assert rc == 0
        assert "strassen" in text and "s333" in text
        assert "2 checked" in text

    def test_exact_entries_report_tiny_residual(self):
        rc, text = run_cli("verify", "strassen")
        line = text.splitlines()[0]
        assert "ok" in line


class TestMultiply:
    def test_small_multiply_reports_speedup_and_error(self):
        rc, text = run_cli("multiply", "-a", "strassen", "-n", "96",
                           "-s", "1", "--trials", "1")
        assert rc == 0
        assert "eff.GFLOPS" in text and "rel.err" in text

    def test_rectangular_shape(self):
        rc, text = run_cli("multiply", "-a", "s424", "--shape", "64", "32",
                           "64", "--trials", "1")
        assert rc == 0
        assert "64x32x64" in text

    def test_parallel_path(self):
        rc, text = run_cli("multiply", "-a", "strassen", "-n", "96",
                           "--parallel", "--scheme", "bfs", "--threads", "2",
                           "--trials", "1")
        assert rc == 0
        assert "bfs" in text

    def test_native_path(self):
        from repro.codegen import cbackend

        if not cbackend.available():
            pytest.skip("no C compiler")
        rc, text = run_cli("multiply", "-a", "strassen", "-n", "96",
                           "--native", "--trials", "1")
        assert rc == 0
        assert "native chains" in text

    def test_no_backend_flag(self, capsys):
        """The chain kernels are a rule, not an option: ``--backend`` is
        gone from the parser and its help."""
        from repro import cli

        with pytest.raises(SystemExit):
            run_cli("multiply", "--backend", "compiled")
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["multiply", "--help"])
        assert "--backend" not in capsys.readouterr().out

    def test_blas_threads_option(self):
        rc, text = run_cli("multiply", "-a", "strassen", "-n", "64",
                           "--trials", "1", "--blas-threads", "1")
        assert rc == 0

    def test_subgroup_path(self):
        rc, text = run_cli("multiply", "-a", "strassen", "-n", "96",
                           "--parallel", "--scheme", "hybrid-subgroup",
                           "--threads", "2", "--subgroup", "1",
                           "--trials", "1")
        assert rc == 0
        assert "hybrid-subgroup" in text

    def test_subgroup_must_divide_threads(self, capsys):
        rc, _ = run_cli("multiply", "-a", "strassen", "-n", "96",
                        "--parallel", "--scheme", "hybrid-subgroup",
                        "--threads", "4", "--subgroup", "3", "--trials", "1")
        assert rc == 2
        assert "divisor" in capsys.readouterr().err

    def test_subgroup_requires_subgroup_scheme(self, capsys):
        rc, _ = run_cli("multiply", "-a", "strassen", "-n", "96",
                        "--parallel", "--scheme", "bfs", "--threads", "2",
                        "--subgroup", "1", "--trials", "1")
        assert rc == 2
        assert "hybrid-subgroup" in capsys.readouterr().err


class TestCodegen:
    def test_python_source(self):
        rc, text = run_cli("codegen", "-a", "strassen")
        assert rc == 0
        assert "Auto-generated fast matrix multiplication" in text
        assert "write_once" in text

    def test_strategy_and_cse_flags(self):
        rc, text = run_cli("codegen", "-a", "s333", "--strategy", "pairwise",
                           "--cse")
        assert rc == 0
        assert "pairwise" in text and "cse=True" in text

    def test_c_source(self):
        rc, text = run_cli("codegen", "-a", "strassen", "--c")
        assert rc == 0
        assert "form_S" in text and "#include" in text


class TestSearchPassthrough:
    def test_forwards_to_driver(self, tmp_path):
        out = tmp_path / "t212.json"
        rc = main(["search", "--base", "2", "1", "2", "--rank", "4",
                   "--starts", "4", "--out", str(out), "--quiet"])
        assert rc == 0
        assert out.exists()


class TestProcessLevel:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "strassen" in proc.stdout

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "multiply" in proc.stdout

    def test_unknown_command_fails(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "frobnicate"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0


class TestStats:
    """``repro stats``: live-registry and snapshot-file telemetry report."""

    @pytest.fixture(autouse=True)
    def clean_obs(self, tmp_path, monkeypatch):
        from repro import obs

        monkeypatch.setenv(obs.SNAPSHOT_ENV, str(tmp_path / "snap.json"))
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def _warm_auto_run(self, tmp_path):
        rc, text = run_cli("multiply", "--auto", "-n", "192", "--trials", "1",
                           "--threads", "1",
                           "--cache", str(tmp_path / "plans.json"))
        assert rc == 0
        return text

    def test_no_data(self):
        rc, text = run_cli("stats")
        assert rc == 0
        assert "no data" in text

    def test_human_report_after_auto(self, tmp_path):
        self._warm_auto_run(tmp_path)
        rc, text = run_cli("stats")
        assert rc == 0
        assert "plan sources:" in text
        assert "cache hit ratio" in text
        assert "workspace:" in text and "overflows 0" in text
        assert "span totals" in text
        assert "last dispatch: 192x192x192" in text

    def test_json_format_parses(self, tmp_path):
        import json

        self._warm_auto_run(tmp_path)
        rc, text = run_cli("stats", "--format", "json")
        assert rc == 0
        snap = json.loads(text)
        assert snap["schema"] == 1
        assert any(c["name"] == "dispatch.calls" for c in snap["counters"])

    def test_prom_format(self, tmp_path):
        self._warm_auto_run(tmp_path)
        rc, text = run_cli("stats", "--format", "prom")
        assert rc == 0
        assert "# TYPE repro_dispatch_calls_total counter" in text
        assert "repro_dispatch_lookup_seconds_sum" in text

    def test_snapshot_file_fallback(self, tmp_path):
        """--auto saves a snapshot; a later process (simulated by resetting
        the live registry) reads it back."""
        from repro import obs

        text = self._warm_auto_run(tmp_path)
        assert "telemetry snapshot:" in text
        obs.disable()
        obs.reset()
        rc, text = run_cli("stats")
        assert rc == 0
        assert "snapshot file" in text
        assert "plan sources:" in text

    def test_reset_clears(self, tmp_path):
        self._warm_auto_run(tmp_path)
        rc, _ = run_cli("stats", "--reset")
        assert rc == 0
        from repro import obs

        obs.disable()  # --auto left telemetry on; stats must be empty now
        rc, text = run_cli("stats")
        assert rc == 0
        assert "no data" in text


class TestExplain:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        from repro import obs

        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_decision_trace(self, tmp_path):
        rc, text = run_cli("multiply", "--explain", "-n", "192",
                           "--threads", "1",
                           "--cache", str(tmp_path / "plans.json"))
        assert rc == 0
        assert "decision trace: 192x192x192" in text
        assert "cost-ranked shortlist" in text
        assert "#1" in text
        assert "chosen plan:" in text and "[source:" in text
        assert "arena footprint:" in text
        assert "observed call:" in text
        assert "dispatch.lookup" in text
        # every shortlisted plan carries a prediction in real units, and
        # the served plan's prediction sits beside its measurement
        import re

        rows = re.findall(r"#\d+ .* predicted +([\d.]+) ms +([\d.]+) "
                          r"eff\.GFLOPS", text)
        assert rows and float(rows[0][0]) > 0
        assert [float(ms) for ms, _ in rows] == sorted(
            float(ms) for ms, _ in rows)
        assert re.search(r"predicted vs measured: [\d.]+ ms vs [\d.]+ ms "
                         r"\(x[\d.]+\)", text)

        # a guarded call crosses the same serving tail: same spans, same
        # record (it used to open no dispatch.* span at all)
        from repro import obs

        obs.reset()
        rc, text = run_cli("multiply", "--explain", "--guard", "-n", "192",
                           "--threads", "1",
                           "--cache", str(tmp_path / "plans.json"))
        assert rc == 0
        assert "observed call:" in text and "guard: on" in text
        for name in ("dispatch.lookup", "dispatch.execute"):
            assert re.search(rf"span {name} +x1 ", text), name


    def test_parallel_plan_says_which_kernels_formed_its_chains(
            self, tmp_path):
        """The schedule's per-call choice (fused C kernels or the NumPy
        adders) is no plan field, so the trace reads it off the
        ``parallel.<scheme>`` span and prints it next to the scheme."""
        from repro.codegen import cbackend
        from repro.tuner import Plan, PlanCache

        cache = PlanCache(tmp_path / "plans.json")
        cache.put(192, 192, 192, "float64", 2,
                  Plan(algorithm="strassen", steps=1, scheme="dfs",
                       threads=2), seconds=0.01, gflops=1.0)
        cache.save()
        rc, text = run_cli("multiply", "--explain", "-n", "192",
                           "--threads", "2", "--cache", str(cache.path))
        assert rc == 0
        assert "[source: cache]" in text
        kind = "fused" if cbackend.available() else "numpy"
        assert f"(scheme dfs, chains {kind}, rel.err" in text
        assert "span parallel.dfs" in text


class TestCacheDoctorCalibrations:
    def test_lists_and_fix_removes_calibrations(self, tmp_path, monkeypatch):
        """A noisy first calibration used to stay until its file was
        deleted by hand: the doctor shows what the cost model runs on and
        ``--fix`` makes the next lookup measure again."""
        import dataclasses
        import json

        from conftest import synthetic_calibration

        from repro.bench import machine

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(machine, "_calibrations", {})
        cal = synthetic_calibration("float32", 2, gflops=12.5, add_gbs=7.0)
        mine = tmp_path / (f"calibration-{machine.fingerprint_digest()}"
                           f"-float32-2t.json")
        theirs = tmp_path / "calibration-0123456789abcdef-float32-2t.json"
        for path in (mine, theirs):
            path.write_text(json.dumps(dataclasses.asdict(cal)))
        plans = str(tmp_path / "plans.json")
        rc, text = run_cli("cache", "doctor", "--cache", plans)
        assert rc == 0 and "healthy" in text
        assert (f"{mine.name} (current fingerprint) float32 2t: peak gemm "
                f"25.0 GFLOPS, add 14.0 GB/s") in text
        assert f"{theirs.name} (foreign fingerprint)" in text
        rc, text = run_cli("cache", "doctor", "--cache", plans, "--fix")
        assert rc == 0 and "removed 2 calibration file(s)" in text
        assert not list(tmp_path.glob("calibration-*.json"))
