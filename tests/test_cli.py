"""Tests for the ``python -m repro`` command-line interface."""

import pathlib
import re
import shlex
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


@pytest.fixture
def clean_obs(tmp_path, monkeypatch):
    """An empty, disabled registry, and a private snapshot file for the
    runs that save one."""
    from repro import obs

    monkeypatch.setenv(obs.SNAPSHOT_ENV, str(tmp_path / "snap.json"))
    obs.disable()
    obs.reset()
    yield obs
    obs.disable()
    obs.reset()


class TestMultiply:
    """The default path pins ``Plan(algorithm, steps, scheme, threads)``
    and serves it through dispatch's tail; what the command says ran is
    the call's own record."""

    def test_small_multiply_reports_speedup_and_error(self, clean_obs):
        rc, text = run_cli("multiply", "-a", "strassen", "-n", "96",
                           "-s", "1", "--trials", "1")
        assert rc == 0
        assert "eff.GFLOPS" in text and "rel.err" in text
        rec = clean_obs.dispatch_records()[-1]
        assert rec["source"] == "pinned"
        assert "last call: " + clean_obs.render_record(rec) in text

    def test_rectangular_shape(self, clean_obs):
        rc, text = run_cli("multiply", "-a", "s424", "--shape", "64", "32",
                           "64", "--trials", "1")
        assert rc == 0
        assert "64x32x64" in text
        assert clean_obs.dispatch_records()[-1]["shape"] == [64, 32, 64]

    def test_pinned_sequential_plan_runs_compiled_kernels(self, clean_obs):
        from repro.codegen import cbackend

        if not cbackend.available():
            pytest.skip("no C compiler")
        rc, text = run_cli("multiply", "-a", "strassen", "-n", "96",
                           "--threads", "1", "--trials", "1")
        assert rc == 0
        assert "chains: compiled kernels" in text
        rec = clean_obs.dispatch_records()[-1]
        assert rec["plan"] == "strassen steps=1 sequential(1t)"
        assert rec["arena_bytes"] > 0 and rec["arena_overflows"] == 0

    def test_pinned_parallel_scheme_leaves_its_record(self, clean_obs):
        rc, text = run_cli("multiply", "-a", "strassen", "-n", "96",
                           "--scheme", "bfs", "--threads", "2",
                           "--trials", "1")
        assert rc == 0
        rec = clean_obs.dispatch_records()[-1]
        assert rec["scheme"] == "bfs" and rec["threads"] == 2
        assert rec["plan"] == "strassen steps=1 bfs(2t)"
        assert "last call: " + clean_obs.render_record(rec) in text

    def test_threads_pin_both_sides(self, clean_obs, monkeypatch):
        """``--threads`` is the plan's thread count and the vendor BLAS's
        (it replaced ``--blas-threads``)."""
        from repro.parallel import blas

        seen = []
        real = blas.blas_threads

        def spy(n):
            seen.append(n)
            return real(n)

        monkeypatch.setattr(blas, "blas_threads", spy)
        rc, _ = run_cli("multiply", "-a", "strassen", "-n", "64",
                        "--trials", "1", "--threads", "1")
        assert rc == 0
        assert seen and set(seen) == {1}

    @pytest.mark.parametrize("flags", [["--backend", "compiled"],
                                       ["--native"], ["--parallel"],
                                       ["--blas-threads", "1"]])
    def test_removed_flags(self, capsys, flags):
        """The chain kernels are a rule, ``--scheme`` names every schedule
        and ``--threads`` pins both sides: these flags are gone from the
        parser and its help."""
        from repro import cli

        with pytest.raises(SystemExit) as exc:
            run_cli("multiply", *flags)
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["multiply", "--help"])
        assert flags[0] not in capsys.readouterr().out

    def test_batch_reports_the_batch_record(self, clean_obs, tmp_path):
        rc, text = run_cli("multiply", "--batch", "3", "-n", "64",
                           "--threads", "1", "--trials", "1",
                           "--cache", str(tmp_path / "plans.json"))
        assert rc == 0
        rec = clean_obs.dispatch_records()[-1]
        assert rec["batch"] == 3 and rec["shape"] == [64, 64, 64]
        assert "last call: " + clean_obs.render_record(rec) in text

    def test_bad_batch_is_a_usage_error(self, capsys):
        rc, _ = run_cli("multiply", "--batch", "0", "-n", "64")
        assert rc == 2
        assert "--batch" in capsys.readouterr().err


class TestCodegen:
    def test_cse_flag(self):
        rc, text = run_cli("codegen", "-a", "s333", "--cse")
        assert rc == 0
        assert text.splitlines()[0].startswith("s333, cse=True:")
        assert "Y[" in text           # CSE definitions have scratch rows

    def test_descriptor(self):
        """``codegen`` prints the descriptor the library reads: one line
        per chain, each rank's operands, the homes of each shape variant
        -- ``C[b]`` for a product block ``b`` of C holds, ``P[i]`` for an
        own row."""
        rc, text = run_cli("codegen", "-a", "strassen")
        assert rc == 0
        lines = text.splitlines()
        assert lines[1] == "<2,2,2> rank 7: S rows 5, T rows 5, Y rows 0"
        assert "S[0] <- +1 A0 +1 A3" in lines
        assert "C0 <- +1 M0 +1 M3 -1 M4 +1 M6" in lines
        assert "M1 = S[1] @ B0" in lines
        assert sum(ln.startswith("homes v") for ln in lines) == 4
        assert "homes v0: C[3] P[0] P[1] C[2] C[1] P[2] C[0]" in lines
        assert "homes v3: C[3] T[0] S[1] C[2] C[1] S[2] C[0]" in lines


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


class TestDocumentedCommands:
    """Every ``python -m repro ...`` command in the README and the verify
    skill parses with the real parser (nothing runs), so a removed flag
    cannot linger in the docs."""

    ROOT = pathlib.Path(__file__).resolve().parents[1]
    DOCS = ("README.md", ".claude/skills/verify/SKILL.md")

    @classmethod
    def commands(cls):
        found = []
        for doc in cls.DOCS:
            path = cls.ROOT / doc
            if not path.exists():
                continue
            for n, line in enumerate(path.read_text().splitlines(), 1):
                for m in re.finditer(r"python -m repro\b([^`#|;&]*)", line):
                    found.append((f"{doc}:{n}", shlex.split(m.group(1))))
        return found

    def test_every_documented_command_parses(self):
        from repro import cli

        commands = self.commands()
        assert len(commands) >= 20
        for where, argv in commands:
            try:
                cli._build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{where}: python -m repro {' '.join(argv)}")


class TestStats:
    """``repro stats``: live-registry and snapshot-file telemetry report."""

    @pytest.fixture(autouse=True)
    def _clean(self, clean_obs):
        yield

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
        from repro import obs

        self._warm_auto_run(tmp_path)
        rc, text = run_cli("stats")
        assert rc == 0
        summary = obs.summarize()
        assert text == ("telemetry (live registry)\n"
                        + obs.render_summary(summary) + "\n")
        assert summary["sources"] and summary["cache_hit_ratio"] is not None
        assert summary["workspace"]["overflows"] == 0
        assert summary["span_totals"]
        assert summary["records"][-1]["shape"] == [192, 192, 192]

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
        assert obs.render_summary(obs.summarize(obs.load_snapshot())) in text

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
    def _clean(self, clean_obs):
        yield

    def test_decision_trace(self, tmp_path):
        import re

        from repro import obs

        rc, text = run_cli("multiply", "--explain", "-n", "192",
                           "--threads", "1",
                           "--cache", str(tmp_path / "plans.json"))
        assert rc == 0
        assert "== 192x192x192" in text
        assert "cost-ranked shortlist" in text
        # every shortlisted plan carries a prediction in real units, and
        # the served plan's prediction sits beside its measurement
        rows = re.findall(r"#\d+ .* predicted +([\d.]+) ms +([\d.]+) "
                          r"eff\.GFLOPS", text)
        assert rows and float(rows[0][0]) > 0
        assert [float(ms) for ms, _ in rows] == sorted(
            float(ms) for ms, _ in rows)
        assert re.search(r"predicted vs measured: [\d.]+ ms vs [\d.]+ ms "
                         r"\(x[\d.]+\)", text)
        # then the record and the summary of its one call, as obs renders
        # them: plan, source, arena, spans
        summary = obs.summarize()
        assert obs.render_summary(summary) in text
        assert summary["calls"] == 1
        assert summary["records"] == obs.dispatch_records()
        spans = {row["name"]: row["count"] for row in summary["span_totals"]}
        assert spans["dispatch.lookup"] == spans["dispatch.execute"] == 1

        # a guarded call crosses the same serving tail: same spans, same
        # record
        obs.reset()
        rc, text = run_cli("multiply", "--explain", "--guard", "-n", "192",
                           "--threads", "1",
                           "--cache", str(tmp_path / "plans.json"))
        assert rc == 0
        assert "guard on ==" in text
        summary = obs.summarize()
        assert obs.render_summary(summary) in text
        spans = {row["name"]: row["count"] for row in summary["span_totals"]}
        assert spans["dispatch.lookup"] == spans["dispatch.execute"] == 1

    def test_parallel_plan_says_which_kernels_formed_its_chains(
            self, tmp_path):
        """The schedule's per-call choice (fused C kernels or the NumPy
        adders) is no plan field: the summary lists its
        ``parallel.<scheme>`` span with the ``chains`` label."""
        from repro import obs
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
        rec = obs.dispatch_records()[-1]
        assert (rec["source"], rec["scheme"]) == ("cache", "dfs")
        kind = "fused" if cbackend.available() else "numpy"
        summary = obs.summarize()
        assert any(row["name"] == "parallel.dfs"
                   and row["labels"]["chains"] == kind
                   for row in summary["span_totals"])
        assert obs.render_summary(summary) in text

    @staticmethod
    def _quarantined(tmp_path, skips):
        """A cached ``strassen steps=1 sequential(1t)`` at 192^3, quarantined
        by the failure ledger, ``skips`` lookups into its backoff."""
        from repro.tuner import Plan, PlanCache

        plan = Plan(algorithm="strassen", steps=1, threads=1)
        cache = PlanCache(tmp_path / "plans.json")
        cache.put(192, 192, 192, "float64", 1, plan, seconds=0.01,
                  gflops=1.0)
        for _ in range(2):
            cache.record_failure(192, 192, 192, "float64", 1, plan, "boom")
        for _ in range(skips):
            cache.plan_quarantined(192, 192, 192, "float64", 1, plan)
        (key,) = cache.quarantined_keys()
        return cache, key

    @pytest.mark.parametrize("skips, argv, calls", [
        (14, ["--explain"], 1),
        (15, ["--explain"], 1),          # this call is the backoff probe
        (13, ["--auto", "--trials", "2"], 3),
    ])
    def test_trace_names_the_plan_that_ran(self, tmp_path, monkeypatch,
                                           skips, argv, calls):
        """No lookup before the call: the printed plan and source are the
        record's, and the ledger is charged once per call made (a second
        lookup used to spend the probe and name a plan that did not
        run)."""
        from repro import obs, tuner

        cache, key = self._quarantined(tmp_path, skips)
        monkeypatch.setattr(tuner, "PlanCache", lambda path=None: cache)
        rc, text = run_cli("multiply", *argv, "-n", "192", "--threads", "1")
        assert rc == 0
        rec = obs.dispatch_records()[-1]
        assert obs.render_record(rec) in text
        assert cache.failure_ledger()[key]["skips"] == skips + calls
        if (skips + calls) % 16 == 0:
            assert (rec["plan"], rec["source"]) == (
                "strassen steps=1 sequential(1t)", "cache")

    def test_guard_lists_quarantined_keys_of_the_default_cache(
            self, tmp_path, monkeypatch):
        """Without ``--cache`` the call runs on the default cache, and the
        trace reads its ledger from that same cache."""
        cache, key = self._quarantined(tmp_path, 0)
        assert cache.save()
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(cache.path))
        rc, text = run_cli("multiply", "--explain", "--guard", "-n", "192",
                           "--threads", "1")
        assert rc == 0
        assert f"quarantined plan keys: {key}" in text

    def test_explain_batch(self, tmp_path):
        from repro import obs

        rc, text = run_cli("multiply", "--explain", "--batch", "2", "-n",
                           "64", "--threads", "1",
                           "--cache", str(tmp_path / "plans.json"))
        assert rc == 0
        assert "== 64x64x64 x batch 2 float64" in text
        rec = obs.dispatch_records()[-1]
        assert rec["batch"] == 2 and obs.summarize()["calls"] == 1
        assert obs.render_record(rec) in text


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
