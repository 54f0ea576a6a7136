"""Tests for the unified telemetry registry (repro.obs)."""

import json
import logging
import threading

import numpy as np
import pytest
from conftest import MULTICORE_THREADS, needs_cc

from repro import obs
from repro.core.workspace import Workspace
from repro.obs import telemetry
from repro.tuner import PlanCache, dispatch, matmul
from repro.tuner.space import Plan
from repro.util.matrices import random_matrix


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts from (and leaves behind) a disabled, empty
    registry -- telemetry is process-global state."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _plan_cache(tmp_path, *entries) -> PlanCache:
    cache = PlanCache(tmp_path / "plans.json")
    for (p, q, r, dtype, threads, plan) in entries:
        cache.put(p, q, r, dtype, threads, plan, seconds=0.01, gflops=1.0)
    return cache


class TestSpans:
    def test_nesting_visible_on_stack(self):
        obs.enable()
        assert obs.active_spans() == ()
        with obs.span("outer"):
            assert obs.active_spans() == ("outer",)
            with obs.span("inner"):
                assert obs.active_spans() == ("outer", "inner")
            assert obs.active_spans() == ("outer",)
        assert obs.active_spans() == ()

    def test_aggregation(self):
        obs.enable()
        for _ in range(3):
            with obs.span("work"):
                pass
        stats = obs.span_stats("work")
        assert stats["count"] == 3
        assert stats["total_s"] >= stats["max_s"] >= stats["min_s"] >= 0.0

    def test_labels_partition_aggregates(self):
        obs.enable()
        with obs.span("exec", scheme="bfs"):
            pass
        with obs.span("exec", scheme="dfs"):
            pass
        assert obs.span_stats("exec", scheme="bfs")["count"] == 1
        assert obs.span_stats("exec", scheme="dfs")["count"] == 1
        assert obs.span_stats("exec") is None

    def test_tallies_sum_into_every_open_span_without_a_label(self):
        """What work inside a span reports (how many products ran in
        vendor batched calls) sums per span key, in every span open on
        the thread, and leaves the key -- so the span's labels -- alone."""
        obs.tally("vendor", 9)                  # disabled: dropped
        obs.enable()
        obs.tally("vendor", 9)                  # no span open: dropped
        for n in (3, 0, 4):
            with obs.span("exec", scheme="bfs"):
                with obs.span("leaf"):
                    obs.tally("vendor", n)
                obs.tally("vendor", 1)
        assert obs.span_stats("exec", scheme="bfs")["vendor"] == 10
        assert obs.span_stats("exec", scheme="bfs")["count"] == 3
        assert obs.span_stats("leaf")["vendor"] == 7
        with obs.span("plain"):
            pass
        assert "vendor" not in obs.span_stats("plain")
        (row,) = [r for r in obs.snapshot()["spans"] if r["name"] == "leaf"]
        assert row["vendor"] == 7
        assert 'repro_leaf_vendor_total 7' in obs.prometheus_text()
        assert "vendor=7" in obs.render_summary(obs.summarize())

    @pytest.mark.multicore
    def test_thread_safety_exact_counts(self):
        obs.enable()
        per_thread = 200

        def worker(idx: int) -> None:
            for _ in range(per_thread):
                with obs.span("mt"):
                    obs.incr("mt.hits")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(MULTICORE_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = MULTICORE_THREADS * per_thread
        assert obs.counter_value("mt.hits") == total
        assert obs.span_stats("mt")["count"] == total


class TestDisabledMode:
    def test_everything_is_a_noop(self):
        obs.incr("c")
        obs.set_gauge("g", 1.0)
        obs.record_dispatch({"x": 1})
        obs.record_task("w0", "leaf", 0.0, 1.0)
        with obs.span("s"):
            pass
        assert obs.is_empty()
        assert obs.counter_value("c") == 0
        assert obs.gauge_value("g") is None
        assert obs.span_stats("s") is None
        assert obs.dispatch_records() == []

    def test_span_is_the_shared_null_singleton(self):
        assert obs.span("anything") is telemetry.NULL_SPAN
        assert obs.span("other", k="v") is telemetry.NULL_SPAN

    def test_disable_preserves_data_until_reset(self):
        obs.enable()
        obs.incr("kept")
        obs.disable()
        assert obs.counter_value("kept") == 1
        obs.reset()
        assert obs.counter_value("kept") == 0


class TestSnapshot:
    def test_json_round_trip(self):
        obs.enable()
        obs.incr("calls", 2, source="cache")
        obs.set_gauge("bytes", 1024.0)
        with obs.span("lookup"):
            pass
        obs.record_dispatch({"shape": [1, 2, 3]})
        snap = json.loads(json.dumps(obs.snapshot()))
        assert snap["schema"] == telemetry.SNAPSHOT_SCHEMA
        assert {"name": "calls", "labels": {"source": "cache"},
                "value": 2} in snap["counters"]
        assert snap["gauges"][0]["value"] == 1024.0
        assert snap["spans"][0]["name"] == "lookup"
        assert snap["dispatch_records"] == [{"shape": [1, 2, 3]}]

    def test_reset_after_atomically_clears(self):
        obs.enable()
        obs.incr("c")
        snap = obs.snapshot(reset_after=True)
        assert snap["counters"]
        assert obs.is_empty()

    def test_save_load(self, tmp_path):
        obs.enable()
        obs.incr("c")
        path = obs.save_snapshot(tmp_path / "snap.json")
        assert path is not None
        loaded = obs.load_snapshot(path)
        assert loaded["counters"][0]["name"] == "c"

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "counters": []}))
        assert obs.load_snapshot(path) is None
        path.write_text("not json")
        assert obs.load_snapshot(path) is None
        assert obs.load_snapshot(tmp_path / "missing.json") is None

    def test_snapshot_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.SNAPSHOT_ENV, str(tmp_path / "here.json"))
        assert obs.default_snapshot_path() == tmp_path / "here.json"


class TestPrometheus:
    def test_counter_gauge_span_shapes(self):
        obs.enable()
        obs.incr("dispatch.calls", 3)
        obs.set_gauge("workspace.arena_bytes", 4096.0)
        with obs.span("dispatch.lookup"):
            pass
        text = obs.prometheus_text()
        assert "# TYPE repro_dispatch_calls_total counter" in text
        assert "repro_dispatch_calls_total 3" in text
        assert "repro_workspace_arena_bytes 4096.0" in text
        assert "repro_dispatch_lookup_seconds_count 1" in text
        assert "repro_dispatch_lookup_seconds_sum" in text
        assert "repro_dispatch_lookup_seconds_max" in text

    def test_label_escaping(self):
        obs.enable()
        obs.incr("c", plan='say "hi"\nback\\slash')
        text = obs.prometheus_text()
        assert 'plan="say \\"hi\\"\\nback\\\\slash"' in text

    def test_name_sanitization(self):
        obs.enable()
        obs.incr("weird.name-with/stuff")
        assert "repro_weird_name_with_stuff_total" in obs.prometheus_text()

    def test_empty_registry_renders_empty(self):
        assert obs.prometheus_text() == ""


class TestDispatchRing:
    def test_eviction_keeps_newest(self):
        obs.enable(ring_size=4)
        for i in range(10):
            obs.record_dispatch({"i": i})
        assert [r["i"] for r in obs.dispatch_records()] == [6, 7, 8, 9]

    def test_resize_preserves_tail(self):
        obs.enable(ring_size=8)
        for i in range(8):
            obs.record_dispatch({"i": i})
        obs.enable(ring_size=2)
        assert [r["i"] for r in obs.dispatch_records()] == [6, 7]


class TestDeferredReports:
    """A hot path queues its samples; every read folds them in first."""

    @staticmethod
    def _build(i):
        return ({"i": i}, {"calls": 1, ("by", (("k", str(i % 2)),)): 1},
                {"last": float(i)})

    def test_every_reader_sees_what_was_queued(self):
        obs.enable(ring_size=8)
        for i in range(5):
            telemetry.defer(self._build, i)
            with obs.span("s", kind="x"):
                pass
        assert obs.counter_value("calls") == 5
        assert obs.counter_value("by", k="0") == 3
        assert obs.gauge_value("last") == 4.0
        assert obs.span_stats("s", kind="x")["count"] == 5
        assert [r["i"] for r in obs.dispatch_records()] == list(range(5))

    def test_disabled_queues_nothing_and_reset_drops_the_queue(self):
        telemetry.defer(self._build, 0)
        assert obs.counter_value("calls") == 0
        obs.enable()
        telemetry.defer(self._build, 1)
        obs.reset()
        assert obs.is_empty()

    def test_a_long_unread_run_folds_itself(self):
        obs.enable(ring_size=4)
        for i in range(3 * telemetry._PENDING_MAX):
            telemetry.defer(self._build, i)
        assert len(telemetry._pending) < telemetry._PENDING_MAX
        assert obs.counter_value("calls") == 3 * telemetry._PENDING_MAX
        assert [r["i"] for r in obs.dispatch_records()] == list(
            range(3 * telemetry._PENDING_MAX - 4, 3 * telemetry._PENDING_MAX))


class TestDispatchIntegration:
    def test_cached_dispatch_records_everything(self, tmp_path):
        plan = Plan(algorithm="strassen", steps=1, scheme="dfs", threads=1)
        cache = _plan_cache(tmp_path, (192, 192, 192, "float64", 1, plan))
        A = random_matrix(192, 192, 0)
        obs.enable()
        C = matmul(A, A, threads=1, cache=cache)
        np.testing.assert_allclose(C, A @ A, atol=1e-9)

        assert obs.counter_value("dispatch.calls") == 1
        assert obs.counter_value("dispatch.source", source="cache") == 1
        assert obs.counter_value("workspace.overflows") == 0
        assert obs.span_stats("dispatch.lookup")["count"] == 1
        assert obs.span_stats("dispatch.execute", scheme="dfs")["count"] == 1
        assert obs.gauge_value("workspace.arena_bytes") > 0
        assert obs.gauge_value("dispatch.last_gflops") > 0

        rec = obs.dispatch_records()[-1]
        assert rec["shape"] == [192, 192, 192]
        assert rec["source"] == "cache"
        assert rec["scheme"] == "dfs"
        assert rec["arena_overflows"] == 0
        assert rec["seconds"] > 0

    def test_disabled_dispatch_records_nothing(self, tmp_path):
        plan = Plan(algorithm="strassen", steps=1, scheme="dfs", threads=1)
        cache = _plan_cache(tmp_path, (192, 192, 192, "float64", 1, plan))
        A = random_matrix(192, 192, 1)
        matmul(A, A, threads=1, cache=cache)
        assert obs.is_empty()


class TestOneServingTail:
    """Plain, guarded, guard-fallback and batched requests report through
    one function: the same spans per call, one record schema, ``seconds``
    the whole call's wall time."""

    BASE = {"shape", "dtype", "threads", "source", "plan", "scheme",
            "seconds", "gflops"}
    ARENA = {"arena_bytes", "arena_high_water", "arena_overflows"}

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("guard", [False, True])
    def test_every_call_opens_both_dispatch_spans(self, guard, batched,
                                                  tmp_path):
        """A batch is one request: one lookup span and one execution span
        (``dispatch.batch``) whatever its element count."""
        from repro.tuner import matmul_batched

        plan = Plan(algorithm="strassen", steps=1, scheme="dfs", threads=1)
        cache = _plan_cache(tmp_path, (192, 192, 192, "float64", 1, plan))
        A = random_matrix(192, 192, 4)
        obs.enable()
        for _ in range(3):
            if batched:
                matmul_batched(np.stack([A] * 4), np.stack([A] * 4),
                               threads=1, cache=cache, guard=guard)
            else:
                matmul(A, A, threads=1, cache=cache, guard=guard)
        span = "dispatch.batch" if batched else "dispatch.execute"
        assert obs.span_stats("dispatch.lookup")["count"] == 3
        assert obs.span_stats(span, scheme="dfs")["count"] == 3
        assert obs.counter_value("dispatch.calls") == 3

    def test_one_record_schema(self, tmp_path):
        from repro.guard import faults
        from repro.tuner import matmul_batched

        plan = Plan(algorithm="strassen", steps=1, threads=1)
        cache = _plan_cache(tmp_path, (192, 192, 192, "float64", 1, plan))
        A = random_matrix(192, 192, 5)
        stack = np.stack([A] * 3)

        def poisoned():
            with faults.inject("plan.raise"):
                return matmul(A, A, threads=1, cache=cache, guard=True)

        requests = {
            "call": lambda: matmul(A, A, threads=1, cache=cache),
            "guarded": lambda: matmul(A, A, threads=1, cache=cache,
                                      guard=True),
            "fallback": poisoned,
            "batched": lambda: matmul_batched(stack, stack, threads=1,
                                              cache=cache),
        }
        obs.enable()
        for kind, request in requests.items():
            obs.reset()
            t0 = telemetry.clock()
            request()
            wall = telemetry.clock() - t0
            (rec,) = obs.dispatch_records()
            extra = set(rec) - self.BASE
            assert self.BASE <= set(rec), kind
            if kind == "batched":
                assert rec["batch"] == 3
                extra -= {"batch"}
            assert extra in (set(), self.ARENA), kind
            assert (rec["source"] == "guard") == (kind == "fallback")
            inside = sum(row["total_s"] for row in obs.snapshot()["spans"]
                         if row["name"].startswith("dispatch."))
            assert inside <= rec["seconds"] <= wall, kind
            assert rec["gflops"] > 0
        faults.reset_fired()


@needs_cc
class TestOverflowSurfacing:
    def _overflowing_call(self, tmp_path, monkeypatch):
        # the interpreter trusts its caller's sizing: a short one shows
        plan = Plan(algorithm="strassen", steps=1, threads=1)
        cache = _plan_cache(tmp_path, (192, 192, 192, "float64", 1, plan))
        tiny = Workspace(64)  # every take overflows to the heap
        monkeypatch.setattr(dispatch, "workspace_for",
                            lambda *a, **k: tiny)
        dispatch.reset_workspaces()  # clears the warned-once set too
        A = random_matrix(192, 192, 2)
        return A, cache

    def test_warns_once_per_plan_shape(self, tmp_path, monkeypatch, caplog):
        A, cache = self._overflowing_call(tmp_path, monkeypatch)
        with caplog.at_level(logging.WARNING, logger=dispatch.__name__):
            matmul(A, A, threads=1, cache=cache)
            matmul(A, A, threads=1, cache=cache)
        hits = [r for r in caplog.records if "overflowed" in r.message]
        assert len(hits) == 1  # once per (plan, shape), not per call
        assert "192x192x192" in hits[0].message

    def test_counter_counts_every_overflow(self, tmp_path, monkeypatch):
        A, cache = self._overflowing_call(tmp_path, monkeypatch)
        obs.enable()
        matmul(A, A, threads=1, cache=cache)
        first = obs.counter_value("workspace.overflows")
        assert first > 0
        matmul(A, A, threads=1, cache=cache)
        assert obs.counter_value("workspace.overflows") > first


class TestWorkspaceStats:
    def test_mark_depth_tracking(self):
        ws = Workspace(1 << 16)
        assert ws.mark_depth == 0
        m1 = ws.mark()
        m2 = ws.mark()
        assert ws.mark_depth == 2
        ws.release(m2)
        ws.release(m1)
        assert ws.mark_depth == 0
        assert ws.max_mark_depth == 2
        ws.mark()
        ws.reset()
        assert ws.mark_depth == 0
        stats = ws.stats()
        assert stats["nbytes"] == ws.nbytes
        assert stats["max_mark_depth"] == 2
        assert stats["overflow_allocations"] == 0


class TestRender:
    """``render_record`` / ``render_summary``: the one human rendering of
    a dispatch record and of a registry summary."""

    BASE = {"shape": [96, 80, 64], "dtype": "float64", "threads": 2,
            "source": "model", "plan": "dgemm(2t)", "scheme": "sequential",
            "seconds": 0.0125, "gflops": 3.5}

    def test_dgemm_record_has_no_arena(self):
        assert obs.render_record(self.BASE) == (
            "96x80x64 float64, 2 thread(s) -> dgemm(2t) [source: model]\n"
            "  0.0125s 3.50 eff.GFLOPS, scheme sequential, no arena")

    def test_batch_record_with_arena(self):
        rec = dict(self.BASE, batch=4, source="cache", scheme="dfs",
                   plan="strassen steps=1 dfs(2t)", arena_bytes=1048576,
                   arena_high_water=524288, arena_overflows=0)
        assert obs.render_record(rec) == (
            "96x80x64 float64 x batch 4, 2 thread(s) -> "
            "strassen steps=1 dfs(2t) [source: cache]\n"
            "  0.0125s 3.50 eff.GFLOPS/elem, scheme dfs, arena 1,048,576 "
            "bytes (high water 524,288, overflows 0)")

    def test_summary_sections(self):
        summary = obs.summarize({})
        assert obs.render_summary(summary) == (
            "dispatch: 0 call(s)\nworkspace: overflows 0, grows 0")
        summary.update(
            calls=2, sources={"cache": 1, "model": 1}, cache_hit_ratio=0.5,
            span_totals=[{"name": "dispatch.execute",
                          "labels": {"scheme": "sequential"}, "count": 2,
                          "total_s": 0.5}],
            records=[self.BASE])
        summary["workspace"].update(arena_bytes=2048.0, high_water=1024.0)
        lines = obs.render_summary(summary).splitlines()
        assert lines[:3] == [
            "dispatch: 2 call(s)",
            "  plan sources: cache=1  model=1  (cache hit ratio: 50%)",
            "workspace: arena 2,048 bytes, high water 1,024, overflows 0, "
            "grows 0"]
        assert lines[3] == "span totals (by total time):"
        assert lines[4].split() == ["dispatch.execute", "scheme=sequential",
                                    "x2", "total", "0.5000s"]
        assert "\n".join(lines[5:]) == ("last dispatch: "
                                        + obs.render_record(self.BASE))
        assert not any(line.startswith("guard") for line in lines)

    @pytest.mark.parametrize("field, value", [
        ("quarantine_skips", 1), ("fallbacks", {"classical": 1}),
        ("faults_fired", {"plan.raise": 2}), ("cache_load_errors", 1)])
    def test_guard_block_only_when_a_count_is_nonzero(self, field, value):
        summary = obs.summarize({})
        summary["guard"][field] = value
        text = obs.render_summary(summary)
        assert "guard: fallbacks " in text
        assert ("injected faults fired: plan.raise=2" in text) == (
            field == "faults_fired")
        assert ("cache load errors 1" in text) == (
            field == "cache_load_errors")
