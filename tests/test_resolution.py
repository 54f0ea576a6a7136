"""The resolution ladder and the one ``tune`` vocabulary, from the outside.

Dispatch resolves trivial -> cache -> same-thread nearest -> cost model
and learns only by measuring (``tune`` = ``never`` / ``auto`` /
``always``).  Pinned here:

- each stage answers the request it owns, and the call's record names it;
- the thread count is part of the key: no entry answers another thread
  count's query, however close its shape;
- ``nearest`` never hands back the queried key itself (that is ``get``'s);
- a cache file of any other schema reads empty and saves as the current
  one;
- ``matmul`` and ``matmul_batched`` take the same three names with the
  same meaning and the same cache entry, and any :class:`TuningPolicy`
  instance;
- every resolver -- ``get_plan`` (which a batch resolves through too) and
  the guard's fallback pick -- charges a quarantined plan's ledger once
  per lookup, so the backoff probe fires on exactly every 16th.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.guard import chain
from repro.tuner import (
    SCHEMA_VERSION,
    PlanCache,
    dispatch,
    enumerate_plans,
    get_plan,
    matmul,
    matmul_batched,
    measure,
)
from repro.tuner.policy import (
    AlwaysTunePolicy,
    AutoTunePolicy,
    TuningPolicy,
    get_policy,
)
from repro.tuner.space import Plan, trivial_dim
from repro.util.matrices import random_matrix

N = 192
STRASSEN = Plan(algorithm="strassen", steps=1, threads=1)
WINOGRAD = Plan(algorithm="winograd", steps=1, threads=1)


@pytest.fixture(autouse=True)
def clean_state():
    def reset():
        obs.disable()
        obs.reset()
        dispatch.reset_workspaces()

    reset()
    yield
    reset()


@pytest.fixture
def cache(tmp_path):
    return PlanCache(tmp_path / "plans.json")


def _threaded(plan: Plan, threads: int) -> Plan:
    return Plan(algorithm=plan.algorithm, steps=plan.steps,
                scheme="sequential" if threads == 1 else "dfs",
                threads=threads)


def _quarantine(cache: PlanCache, plan: Plan, n: int = N) -> None:
    for _ in range(2):
        cache.record_failure(n, n, n, "float64", 1, plan, "boom")


# ------------------------------------------------------------ the four stages
@pytest.mark.parametrize("stage", ["trivial", "cache", "nearest", "model"])
def test_the_stage_that_owns_the_request_answers(stage, cache):
    n = trivial_dim("float64") // 2 if stage == "trivial" else N
    if stage == "cache":
        cache.put(N, N, N, "float64", 1, STRASSEN)
    elif stage == "nearest":
        cache.put(N + 16, N, N, "float64", 1, STRASSEN)

    plan, source = get_plan(n, n, n, threads=1, cache=cache)

    assert source == stage
    if stage == "trivial":
        assert plan.is_dgemm
    elif stage == "model":
        assert plan == enumerate_plans(n, n, n, threads=1)[0]
    else:
        assert plan == STRASSEN
    obs.enable()
    A, B = random_matrix(n, n, 0), random_matrix(n, n, 1)
    C = matmul(A, B, threads=1, cache=cache)
    assert np.array_equal(C, dispatch.execute_plan(plan, A, B))
    (rec,) = obs.dispatch_records()
    assert (rec["source"], rec["plan"]) == (source, plan.describe())


@pytest.mark.parametrize("tuned_at, asked_at",
                         [(1, 2), (2, 1), (2, 4), (4, 2)])
def test_no_entry_answers_another_thread_count(tuned_at, asked_at, cache):
    """Neither the exact shape nor a neighbour tuned at ``tuned_at``
    answers a query at ``asked_at``: it resolves to the cost model at its
    own thread count, while ``tuned_at`` still hits."""
    tuned = _threaded(STRASSEN, tuned_at)
    cache.put(N, N, N, "float64", tuned_at, tuned)
    cache.put(N + 16, N, N, "float64", tuned_at, tuned)

    assert cache.get(N, N, N, "float64", asked_at) is None
    assert cache.nearest(N, N, N, "float64", asked_at) is None
    plan, source = get_plan(N, N, N, threads=asked_at, cache=cache)
    assert source == "model" and plan.threads == asked_at
    assert get_plan(N, N, N, threads=tuned_at,
                    cache=cache) == (tuned, "cache")


@pytest.mark.parametrize("own", ["fresh", "foreign"])
def test_nearest_never_answers_the_queried_key(own, tmp_path):
    """Whether the queried key's own entry is servable (``fresh``) or
    another machine's (``foreign``), ``nearest`` skips it and answers
    with the closest *other* shape."""
    path = tmp_path / "plans.json"
    writer = PlanCache(path, fingerprint=(None if own == "fresh"
                                          else "elsewhere"))
    writer.put(N, N, N, "float64", 1, STRASSEN)
    writer.save()
    cache = PlanCache(path)
    assert cache.get(N, N, N, "float64", 1) == (
        STRASSEN if own == "fresh" else None)
    assert cache.nearest(N, N, N, "float64", 1) is None

    cache.put(N + 16, N, N, "float64", 1, WINOGRAD)
    assert cache.nearest(N, N, N, "float64", 1) == WINOGRAD


# ------------------------------------------------------------- cache schema
@pytest.mark.parametrize("schema", [1, 2, 3, 4, 5, 7, "6", None],
                         ids=lambda s: f"schema={s!r}")
def test_any_other_schema_reads_empty_and_saves_current(schema, tmp_path):
    """Entries and failure ledger alike: a file stamped with anything but
    the current schema (or with none) loads as a cold cache, without a
    load error, and the next save rewrites it as the current schema."""
    path = tmp_path / "plans.json"
    writer = PlanCache(path)
    writer.put(N, N, N, "float64", 1, STRASSEN)
    _quarantine(writer, STRASSEN)
    assert writer.save()
    raw = json.loads(path.read_text())
    if schema is None:
        del raw["schema"]
    else:
        raw["schema"] = schema
    path.write_text(json.dumps(raw))

    reader = PlanCache(path)
    assert len(reader) == 0 and reader.load_error is None
    assert reader.failure_ledger() == {}
    assert get_plan(N, N, N, threads=1, cache=reader)[1] == "model"
    assert reader.save()
    assert json.loads(path.read_text())["schema"] == SCHEMA_VERSION == 6


# ----------------------------------------------------------- tune vocabulary
#: what two identical calls on an empty cache report, per ``tune`` name
TWO_CALLS = [("never", ["model", "model"]), ("auto", ["tuned", "cache"]),
             ("always", ["tuned", "tuned"])]


@pytest.mark.parametrize("tune, sources", TWO_CALLS)
def test_matmul_learns_only_by_measuring(tune, sources, cache, monkeypatch):
    """``never`` serves the model twice and caches nothing; ``auto``
    measures once and is a cache hit after; ``always`` measures again."""
    monkeypatch.setattr(measure, "enumerate_plans",
                        lambda *a, **k: [STRASSEN])
    A, B = random_matrix(N, N, 4), random_matrix(N, N, 5)
    obs.enable()
    for _ in sources:
        C = matmul(A, B, threads=1, cache=cache, tune=tune)
        np.testing.assert_allclose(C, A @ B, rtol=1e-10, atol=1e-10)

    assert [rec["source"] for rec in obs.dispatch_records()] == sources
    assert cache.get(N, N, N, "float64", 1) == (
        None if tune == "never" else STRASSEN)


@pytest.mark.parametrize("tune, sources", TWO_CALLS)
def test_matmul_batched_reads_the_same_names(tune, sources, cache,
                                             monkeypatch):
    """A batch under the same three names, with the same meaning: it
    measures its shape as a single call would, under the per-call key."""
    monkeypatch.setattr(measure, "enumerate_plans",
                        lambda *a, **k: [STRASSEN])
    batch = 3
    A = np.stack([random_matrix(N, N, 6 + i) for i in range(batch)])
    B = np.stack([random_matrix(N, N, 9 + i) for i in range(batch)])
    obs.enable()
    for _ in sources:
        C = matmul_batched(A, B, threads=1, cache=cache, tune=tune)
        np.testing.assert_allclose(C, A @ B, rtol=1e-10, atol=1e-10)

    assert [rec["source"] for rec in obs.dispatch_records()] == sources
    assert cache.get(N, N, N, "float64", 1) == (
        None if tune == "never" else STRASSEN)


@pytest.mark.parametrize("cls", [TuningPolicy, AutoTunePolicy,
                                 AlwaysTunePolicy], ids=lambda c: c.name)
def test_one_stateless_policy_per_name(cls):
    """A name resolves to the one instance every thread shares; an
    instance passes through untouched."""
    mine = cls()
    assert get_policy(mine) is mine
    seen = []
    workers = [threading.Thread(target=lambda: seen.append(
        get_policy(cls.name))) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert len({id(p) for p in seen}) == 1
    assert type(seen[0]) is cls and seen[0] is get_policy(cls.name)


# ------------------------------------------------ one charge per lookup
@pytest.mark.parametrize("stages", [("cache",), ("cache", "nearest"),
                                    ("cache", "nearest", "model")],
                         ids="+".join)
def test_get_plan_charges_once_however_many_stages_propose(stages, cache,
                                                           monkeypatch):
    """A quarantined plan proposed by the cache, a neighbour and the cost
    model in one lookup costs that lookup one skip: the probe serves it
    from the cache at lookups 16 and 32, and the model's next candidate
    serves every other lookup."""
    cache.put(N, N, N, "float64", 1, STRASSEN)
    if "nearest" in stages:
        cache.put(N + 16, N, N, "float64", 1, STRASSEN)
    ranked = [STRASSEN, WINOGRAD] if "model" in stages else [WINOGRAD]
    monkeypatch.setattr(dispatch, "enumerate_plans",
                        lambda *a, **k: list(ranked))
    _quarantine(cache, STRASSEN)
    obs.enable()

    served = [get_plan(N, N, N, threads=1, cache=cache) for _ in range(32)]

    probes = [i for i, hit in enumerate(served, 1)
              if hit == (STRASSEN, "cache")]
    assert probes == [16, 32]
    assert served.count((WINOGRAD, "model")) == 30
    assert obs.counter_value("guard.quarantine_skips") == 30
    assert obs.counter_value("guard.quarantine_probes") == 2


def test_guard_fallback_pick_charges_once_per_pick(cache):
    """The guard's cost-model stage skips a quarantined head candidate at
    one charge per pick, and tries it again on every 16th."""
    ranked = enumerate_plans(N, N, N, threads=1)
    head, failed = ranked[0], ranked[-1]
    runner_up = next(c for c in ranked[1:] if c != failed)
    _quarantine(cache, head)
    obs.enable()

    picks = [chain._fallback_plan(failed, N, N, N, "float64", 1, cache)
             for _ in range(32)]

    assert [i for i, pl in enumerate(picks, 1) if pl == head] == [16, 32]
    assert picks.count(runner_up) == 30
    assert obs.counter_value("guard.quarantine_skips") == 30
