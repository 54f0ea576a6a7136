"""Tests for scheduler tracing (repro.parallel.trace)."""

import time

import numpy as np
import pytest

from repro.algorithms import strassen
from repro.parallel import multiply_parallel
from repro.parallel.trace import TaskEvent, Trace, TracedPool
from repro.util.matrices import random_matrix


class TestTraceMath:
    def _trace(self):
        return Trace([
            TaskEvent("w0", "leaf", 0.0, 2.0),
            TaskEvent("w0", "leaf", 2.0, 3.0),
            TaskEvent("w1", "leaf", 0.0, 1.0),
            TaskEvent("w1", "add", 1.0, 1.5),
        ])

    def test_per_worker_busy(self):
        busy = self._trace().per_worker_busy()
        assert busy["w0"] == pytest.approx(3.0)
        assert busy["w1"] == pytest.approx(1.5)

    def test_imbalance(self):
        # mean busy = 2.25, max = 3.0
        assert self._trace().imbalance() == pytest.approx(3.0 / 2.25)

    def test_imbalance_empty(self):
        assert Trace().imbalance() == 1.0

    def test_makespan(self):
        assert self._trace().makespan() == pytest.approx(3.0)

    def test_total_task_time(self):
        assert self._trace().total_task_time() == pytest.approx(4.5)

    def test_label_filter(self):
        t = self._trace().by_label_prefix("add")
        assert len(t.events) == 1


class TestTracedPool:
    def test_records_events(self):
        with TracedPool(2) as pool:
            pool.label("unit")
            pool.map_wait(lambda x: time.sleep(0.01), range(4))
            assert len(pool.trace.events) == 4
            assert all(e.label == "unit" for e in pool.trace.events)
            assert all(e.duration >= 0.005 for e in pool.trace.events)

    def test_clear(self):
        with TracedPool(1) as pool:
            pool.map_wait(lambda x: x, [1])
            pool.trace.clear()
            assert not pool.trace.events

    def test_results_unaffected(self):
        with TracedPool(2) as pool:
            assert pool.map_wait(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]

    @staticmethod
    def _tasks_by_phase(pool):
        counts = {}
        for ev in pool.trace.events:
            counts[ev.label] = counts.get(ev.label, 0) + 1
        return counts

    def test_multiply_parallel_through_traced_pool(self):
        A = random_matrix(64, 64, 0)
        with TracedPool(2) as pool:
            C = multiply_parallel(A, A, strassen(), steps=1, scheme="bfs",
                                  pool=pool)
            np.testing.assert_allclose(C, A @ A, atol=1e-10)
            # every phase keeps both workers busy -- the root included,
            # whichever kernels form the chains (7 tasks per node with the
            # NumPy adders, one per row range with the compiled kernels)
            counts = self._tasks_by_phase(pool)
            assert counts["bfs.leaf"] == 7
            assert counts["bfs.expand"] >= 2
            assert counts["bfs.combine"] >= 1

    def test_bfs_leaf_count_visible(self):
        A = random_matrix(64, 64, 1)
        with TracedPool(2) as pool:
            multiply_parallel(A, A, strassen(), steps=2, scheme="bfs",
                              pool=pool)
            counts = self._tasks_by_phase(pool)
            assert counts["bfs.leaf"] == 49
            # two levels of expansion and of combine, >= 1 task per node
            assert counts["bfs.expand"] >= 2 + 7
            assert counts["bfs.combine"] >= 7 + 1


class TestDegenerateTraces:
    def test_single_worker_imbalance_is_perfect(self):
        t = Trace([TaskEvent("w0", "leaf", 0.0, 2.0),
                   TaskEvent("w0", "leaf", 2.0, 5.0)])
        assert t.imbalance() == 1.0

    def test_zero_duration_tasks(self):
        t = Trace([TaskEvent("w0", "leaf", 1.0, 1.0),
                   TaskEvent("w1", "leaf", 2.0, 2.0)])
        assert t.imbalance() == 1.0

    def test_empty_per_worker_busy(self):
        assert Trace().per_worker_busy() == {}


class TestObsIntegration:
    """TracedPool events are the same stream the telemetry registry sees."""

    @pytest.fixture(autouse=True)
    def clean_registry(self):
        from repro import obs

        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_events_feed_registry_when_enabled(self):
        from repro import obs

        obs.enable()
        with TracedPool(2) as pool:
            pool.label("unit")
            pool.map_wait(lambda x: time.sleep(0.005), range(4))
        stats = obs.span_stats("task.unit")
        assert stats["count"] == 4
        # the registry's per-label total matches the trace's own view
        busy = sum(pool.trace.per_worker_busy().values())
        assert stats["total_s"] == pytest.approx(busy, rel=1e-6)
        # per-worker counters partition the same 4 events
        total_events = sum(
            c["value"] for c in obs.snapshot()["counters"]
            if c["name"] == "task.events"
        )
        assert total_events == 4

    def test_registry_untouched_when_disabled(self):
        from repro import obs

        with TracedPool(2) as pool:
            pool.label("unit")
            pool.map_wait(lambda x: x, range(4))
        assert len(pool.trace.events) == 4  # trace still works standalone
        assert obs.span_stats("task.unit") is None
        assert obs.is_empty()
