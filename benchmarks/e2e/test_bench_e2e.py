"""Self-test of the benchmark harness (not of repro).

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e``; it sits outside
tier-1's ``testpaths``.  A tiny workload goes through the same code the
real ones do, in this process, so the checks are about the harness: every
metric ``BENCHMARK.json`` names is produced and printed with a unit, the
layer numbers add up to the call they decompose, and the verifier can fail.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import bench_e2e  # noqa: E402
import child  # noqa: E402
from workloads import WORKLOADS, Case, PlanSpec, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = Workload("tiny", cases=(
    Case((192, 192, 192), tune_budget_s=1.0, pinned=(
        PlanSpec("strassen", 1, backend="compiled"), PlanSpec("strassen", 1))),
))


@pytest.fixture
def hermetic(tmp_path, monkeypatch):
    """What ``bench_e2e.child_env`` does for a child, for this process."""
    for key, value in bench_e2e.child_env(tmp_path).items():
        if key.startswith(("REPRO_", "XDG_", "TMPDIR", "PYTHONPATH")):
            monkeypatch.setenv(key, value)
    (tmp_path / "tmp").mkdir()
    yield tmp_path
    from repro import tuner

    tuner.reset_workspaces()
    tuner.shutdown_shared_pools()


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_untraced_run_reports_every_end_to_end_metric(hermetic, capsys):
    result = child.run_workload(TINY, seed=0, seconds=0.3, trace=False,
                                workdir=hermetic)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= child.MIN_ROUNDS * 5
    assert result["metrics"]["error_rate"]["value"] == 0
    bench_e2e.print_metrics("tiny", result)
    printed = capsys.readouterr().out
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert re.search(rf"^{re.escape(metric['name'])} +\S+ "
                         rf"{re.escape(metric['unit'])}\b", printed, re.M)
    line = json.loads(bench_e2e.result_line(
        result, [m["name"] for m in SPEC["end_to_end"]]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_layer_metric_and_layers_add_up(hermetic):
    result = child.run_workload(TINY, seed=0, seconds=0.6, trace=True,
                                workdir=hermetic)
    assert result["failed"] == 0
    metrics = result["metrics"]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert np.isfinite(metrics[metric["name"]]["value"])

    def value(name):
        return metrics[name]["value"]
    parts = (value("dispatch.glue_us") + value("dispatch.lookup_us")
             + value("dispatch.arena_us") + value("dispatch.execute_ms") * 1e3)
    assert parts == pytest.approx(value("dispatch.primary_call_us"), rel=0.05)
    assert value("workspace.overflow_allocations") == 0
    assert 0 < value("stability.max_err_over_bound") <= 1
    assert value("obs.overhead_ratio") > 0
    spans = json.loads((hermetic / "trace.json").read_text())["spans"]
    by_id = {s["id"]: s for s in spans}
    assert {s["name"] for s in spans} >= {"call", "replay", "lookup",
                                          "arena", "execute"}
    assert all(by_id[s["parent"]]["name"] == "replay"
               for s in spans if s["name"] in ("lookup", "arena", "execute"))


def test_the_verifier_can_fail(hermetic, monkeypatch):
    from repro import tuner

    def wrong(plan, A, B, pool=None, out=None, workspace=None):
        np.add(A @ B, 1e-3, out=out)
        return out
    monkeypatch.setattr(tuner, "execute_plan", wrong)
    result = child.run_workload(TINY, seed=0, seconds=0.3, trace=False,
                                workdir=hermetic)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["error_rate"]["value"] > 0
    assert any("fast:" in why for why in result["extra"]["failures"])


def test_refuses_a_pinned_plan_missing_from_the_catalog(hermetic):
    ghost = Workload("ghost", cases=(
        Case((192, 192, 192), pinned=(PlanSpec("no_such_algorithm", 1),)),))
    with pytest.raises(child.Refusal, match="not in the catalog"):
        child.run_workload(ghost, seed=0, seconds=0.3, trace=False,
                           workdir=hermetic)


@pytest.mark.parametrize("a, b, better, word", [
    ((1.00, 0.99, 1.01), (0.97, 0.96, 0.98), "higher", "ok"),
    ((1.00, 0.99, 1.01), (0.90, 0.89, 0.91), "higher", "worse"),
    ((1.00, 0.90, 1.10), (0.93, 0.85, 1.00), "higher", "unresolved"),
    ((10.0, None, None), (12.0, None, None), "lower", "worse"),
    ((10.0, None, None), (9.0, None, None), "lower", "ok"),
])
def test_compare_verdicts(a, b, better, word):
    def metric(value, q1, q3):
        return ({"value": value} if q1 is None
                else {"value": value, "q1": q1, "q3": q3})
    assert bench_e2e.verdict(metric(*a), metric(*b), better, 0.05)[1] == word


def test_compare_exits_nonzero_on_worse(tmp_path, capsys):
    def result_file(name, tuned):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["tuned_vs_blas"] = {"value": tuned, "unit": "ratio",
                                    "q1": tuned * 0.99, "q3": tuned * 1.01}
        path = tmp_path / name
        path.write_text(json.dumps({"workloads": {"square_seq": {
            "metrics": metrics, "attempted": 10, "failed": 0}}}))
        return str(path)
    a, same, slow = (result_file("a.json", 1.0), result_file("b.json", 0.99),
                     result_file("c.json", 0.5))
    assert bench_e2e.main(["compare", a, same]) == 0
    assert bench_e2e.main(["compare", a, slow]) == 1
    assert "worse" in capsys.readouterr().out
