"""Pluggable tuning policies: when (and how) dispatch is allowed to learn.

PR 1's dispatcher knew two modes bolted onto ``matmul`` (``tune="auto"`` /
``"always"``).  This module makes the decision a first-class, pluggable
object, because the paper's core claim -- the best fast algorithm varies
with shape *and* machine -- means the right learning behaviour differs by
deployment:

- ``never``   -- pure dispatch: cache -> nearest -> cost model.  Zero
  overhead, never measures (production hot path with a pre-tuned cache);
- ``auto``    -- one-shot offline tuning on a cost-model miss: the first
  call for an untuned shape pays a synthetic measurement sweep, every
  later call hits the cache;
- ``always``  -- re-tune on every call (benchmarking/diagnostics);
- ``online``  -- **budgeted exploration during real calls**: no synthetic
  operands, no blocking sweep.  Each dispatch runs one plan from the
  cost-ranked shortlist, epsilon-greedy (explore the least-tried
  candidate with probability epsilon, else exploit the best observed),
  and times the call it was going to make anyway -- the measurement cost
  is amortized to (almost) nothing.  Once every candidate has enough
  trials, or the dispatch budget is exhausted, the winner is promoted
  into the plan cache and the shape behaves like ``never`` from then on;
- ``ucb``     -- the same amortized harness driven by UCB1 instead of a
  coin flip: deterministic confidence-bound arm selection (no RNG), the
  natural fit for parallel-plan shortlists where the P' sub-space makes
  candidates plentiful and per-trial variance matters.

``register_policy`` admits project-specific strategies (per-tenant
budgets, ...) without touching dispatch; ``ucb`` itself registers through
that path.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
import zlib

from repro.bench.metrics import effective_gflops
from repro.obs import telemetry
from repro.tuner.cache import PlanCache, problem_key
from repro.tuner.space import Plan, enumerate_plans, trivial_dim
from repro.util.rng import default_rng

#: shortlist size policies explore (cost-model-ranked head of the space)
DEFAULT_SHORTLIST = 4

#: observations per candidate before the online policy may promote
DEFAULT_MIN_TRIALS = 2

#: exploration probability of the online epsilon-greedy rule
DEFAULT_EPSILON = 0.25

#: hard per-shape dispatch budget: promotion happens at the latest here,
#: even if some candidate never got ``min_trials`` observations
DEFAULT_MAX_DISPATCHES = 32


def measured_plan(p: int, q: int, r: int, dtype: str, threads: int,
                  cache: PlanCache) -> tuple[Plan, str] | None:
    """The resolution stages that rest on measured evidence -- trivial
    shape, exact cache hit, same-thread nearest neighbour -- or ``None``.

    Shared by ``dispatch.get_plan`` and the online policies, so the two
    cannot disagree on where serving as-is ends and guessing (or
    exploring) begins.
    """
    if min(p, q, r) < trivial_dim(dtype):
        return Plan(threads=threads), "trivial"
    plan = cache.get(p, q, r, dtype, threads)
    if plan is not None:
        return plan, "cache"
    plan = cache.nearest(p, q, r, dtype, threads, cross_thread=False)
    if plan is not None:
        return plan, "nearest"
    return None


class TuningPolicy:
    """Base policy: resolve a plan, optionally learn from execution.

    ``select`` returns ``(plan, source)`` like ``dispatch.get_plan`` (with
    the extra sources ``"tuned"`` and ``"online"``); ``wants_timing``
    tells dispatch whether to time the real call and feed the duration to
    ``observe``.  The base class never measures -- it *is* the ``never``
    policy.
    """

    name = "never"

    #: monotonic clock used to bracket timed dispatches; instances (and
    #: tests) may substitute their own
    clock = staticmethod(time.perf_counter)

    def select(self, p: int, q: int, r: int, dtype: str, threads: int,
               cache: PlanCache) -> tuple[Plan, str]:
        from repro.tuner.dispatch import get_plan

        return get_plan(p, q, r, dtype=dtype, threads=threads, cache=cache)

    def wants_timing(self, source: str) -> bool:
        return False

    def observe(self, p: int, q: int, r: int, dtype: str, threads: int,
                cache: PlanCache, plan: Plan, seconds: float) -> None:
        pass


class AutoTunePolicy(TuningPolicy):
    """Offline-tune (synthetic operands, blocking) when dispatch has no
    measured evidence for the key: a cost-model miss, or a cross-thread
    ``"transfer"`` plan -- valid to serve, but never timed at this thread
    count, so the first call measures properly and caches the result."""

    name = "auto"

    def __init__(self, shortlist: int = DEFAULT_SHORTLIST,
                 trials: int = 1, persist: bool = True):
        self.shortlist = shortlist
        self.trials = trials
        self.persist = persist

    def _should_tune(self, source: str) -> bool:
        return source in ("model", "transfer")

    def select(self, p, q, r, dtype, threads, cache):
        plan, source = super().select(p, q, r, dtype, threads, cache)
        if source != "trivial" and self._should_tune(source):
            from repro.tuner.measure import tune_shape

            report = tune_shape(
                p, q, r, dtype=dtype, threads=threads, cache=cache,
                max_candidates=self.shortlist, trials=self.trials,
                persist=self.persist,
            )
            if source == "transfer" and telemetry.enabled():
                self._record_transfer_quality(plan, report, p, q, r,
                                              dtype, threads)
            return report.best.plan, "tuned"
        return plan, source

    def _record_transfer_quality(self, transferred: Plan, report,
                                 p, q, r, dtype, threads) -> None:
        """Gauge how good the cross-thread transferred plan actually was,
        relative to the re-tuned winner at this thread count.

        ``transfer.quality_ratio`` (transferred seconds / best seconds,
        1.0 = the transfer was already optimal) is the measured evidence a
        later PR needs to calibrate the fixed ``CROSS_THREAD_PENALTY``
        prior from real data instead of a guess.
        """
        sec = next((m.seconds for m in report.measurements
                    if m.plan == transferred), None)
        if sec is None:
            # the retargeted plan missed the re-tune shortlist: time it
            # once on the sweep's own deterministic operands
            from repro.tuner.measure import measure_plan, tuning_operands

            A, B = tuning_operands(p, q, r, dtype=dtype)
            try:
                sec = measure_plan(transferred, A, B, trials=1).seconds
            except Exception:  # telemetry must never break dispatch
                return
        best = report.best.seconds
        if best > 0:
            telemetry.set_gauge("transfer.quality_ratio", sec / best,
                                key=problem_key(p, q, r, dtype, threads))
            telemetry.incr("transfer.retuned")


class AlwaysTunePolicy(AutoTunePolicy):
    """Re-tune on every non-trivial call (diagnostics, never production)."""

    name = "always"

    def _should_tune(self, source: str) -> bool:
        return True


class _OnlineState:
    """Per-(shape, dtype, threads) exploration bookkeeping."""

    __slots__ = ("plans", "times", "dispatches", "done", "rng")

    def __init__(self, plans: list[Plan], seed: int):
        self.plans = plans
        self.times: list[list[float]] = [[] for _ in plans]
        self.dispatches = 0
        self.done = False
        self.rng = default_rng(seed)


class OnlineTunePolicy(TuningPolicy):
    """Epsilon-greedy exploration of the shortlist during real dispatches.

    Stateful (one :class:`_OnlineState` per problem key) and deterministic:
    the per-key RNG is seeded from ``seed`` and the key, so a fixed call
    sequence explores a fixed plan sequence -- tests rely on this, and so
    does debugging a production trace.

    The dispatch contract's nearest-neighbour step is honored: a
    fingerprint-fresh plan tuned at an adjacent shape *at the same thread
    count* is trusted (the paper's regimes are wide plateaus) and ends
    exploration for the shape, exactly as ``auto`` would dispatch it.
    Exploration only runs where no measured evidence exists -- and a
    cross-thread transfer is a prior, not evidence: timings from another
    thread count say nothing about, e.g., which P' wins here, so the
    policy keeps exploring at the queried thread count (pure dispatch,
    ``tune="never"``, still serves the transfer in the meantime).

    ``clock`` is injectable (tests substitute a fake monotonic clock to
    script which plan "wins"); dispatch brackets the real ``execute_plan``
    call with it and reports the duration to :meth:`observe`.
    """

    name = "online"

    def __init__(self, shortlist: int = DEFAULT_SHORTLIST,
                 min_trials: int = DEFAULT_MIN_TRIALS,
                 epsilon: float = DEFAULT_EPSILON,
                 max_dispatches: int = DEFAULT_MAX_DISPATCHES,
                 seed: int = 0, clock=time.perf_counter,
                 persist: bool = True):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.shortlist = shortlist
        self.min_trials = max(1, min_trials)
        self.epsilon = epsilon
        self.max_dispatches = max_dispatches
        self.seed = seed
        self.clock = clock
        self.persist = persist
        self._states: dict[tuple, _OnlineState] = {}

    # ------------------------------------------------------------ plumbing
    def _state(self, key: tuple, p: int, q: int, r: int, dtype: str,
               threads: int) -> _OnlineState:
        st = self._states.get(key)
        if st is None:
            plans = enumerate_plans(p, q, r, threads=threads, dtype=dtype,
                                    max_candidates=self.shortlist)
            key_seed = self.seed ^ zlib.crc32(repr(key).encode())
            st = self._states[key] = _OnlineState(plans, key_seed)
        return st

    def reset(self) -> None:
        """Forget all exploration state (tests; after cache invalidation)."""
        self._states.clear()

    # ------------------------------------------------------------- choices
    def _pick(self, st: _OnlineState) -> int:
        untried = [i for i, ts in enumerate(st.times)
                   if len(ts) < self.min_trials]
        observed = [i for i, ts in enumerate(st.times) if ts]
        explore = untried and (
            not observed or st.rng.random() < self.epsilon
        )
        telemetry.incr("policy.choice", policy=self.name,
                       kind="explore" if explore else "exploit")
        if explore:
            # least-tried first; ties resolve to the better cost rank
            return min(untried, key=lambda i: (len(st.times[i]), i))
        if observed:
            return min(observed,
                       key=lambda i: statistics.median(st.times[i]))
        return 0

    def select(self, p, q, r, dtype, threads, cache):
        hit = measured_plan(p, q, r, dtype, threads, cache)
        if hit is not None:
            return hit
        key = (p, q, r, dtype, threads)
        st = self._state(key, p, q, r, dtype, threads)
        if st.done:
            # already converged, but *this* cache misses (new or cleared
            # cache, or one from another process): re-commit the winner
            # from the accumulated evidence instead of exploring again
            winner = self._promote(key, cache)
            if winner is not None:
                return winner, "cache"
        return st.plans[self._pick(st)], "online"

    def wants_timing(self, source: str) -> bool:
        return source == "online"

    # ------------------------------------------------------------ learning
    def observe(self, p, q, r, dtype, threads, cache, plan, seconds):
        key = (p, q, r, dtype, threads)
        st = self._states.get(key)
        if st is None or st.done:
            return
        try:
            idx = st.plans.index(plan)
        except ValueError:
            return  # a plan we didn't hand out (caller mixed policies)
        st.times[idx].append(seconds)
        st.dispatches += 1
        if telemetry.enabled():
            label = problem_key(p, q, r, dtype, threads)
            pulls = st.times[idx]
            telemetry.set_gauge("policy.arm_pulls", len(pulls),
                                policy=self.name, key=label, arm=str(idx))
            telemetry.set_gauge("policy.arm_mean_seconds",
                                sum(pulls) / len(pulls),
                                policy=self.name, key=label, arm=str(idx))
        fully_sampled = all(len(ts) >= self.min_trials for ts in st.times)
        if fully_sampled or st.dispatches >= self.max_dispatches:
            self._promote(key, cache)

    def _promote(self, key: tuple, cache: PlanCache) -> Plan | None:
        """Commit the best observed candidate to the cache; return it."""
        p, q, r, dtype, threads = key
        st = self._states[key]
        observed = [i for i, ts in enumerate(st.times) if ts]
        if not observed:
            return None
        best = min(observed, key=lambda i: statistics.median(st.times[i]))
        sec = statistics.median(st.times[best])
        cache.put(p, q, r, dtype, threads, st.plans[best],
                  seconds=sec, gflops=effective_gflops(p, q, r, sec))
        if self.persist:
            cache.save()
        st.done = True
        return st.plans[best]

    def converged(self, p: int, q: int, r: int, dtype: str = "float64",
                  threads: int = 1) -> bool:
        """Whether exploration for this key has promoted a winner."""
        st = self._states.get((p, q, r, dtype, threads))
        return bool(st and st.done)


#: UCB1 exploration weight (the bonus multiplier on sqrt(2 ln N / n_i));
#: rewards are normalized into (0, 1], so 1.0 keeps the classic balance
DEFAULT_UCB_EXPLORATION = 1.0


class UCBTunePolicy(OnlineTunePolicy):
    """UCB1 exploration of the shortlist during real dispatches.

    Same amortized deterministic timing harness as epsilon-greedy
    (:class:`OnlineTunePolicy`): dispatch brackets the real call with the
    injectable ``clock``, ``observe`` accumulates per-candidate timings,
    and the same promotion contract commits the median-best candidate to
    the cache once every candidate has ``min_trials`` observations or the
    ``max_dispatches`` budget runs out.

    Only the arm-selection rule differs, and it is *fully deterministic*
    -- no RNG at all, unlike epsilon-greedy's coin flip.  Each candidate's
    observed median time is normalized into a reward in (0, 1] (the
    incumbent scores 1) and the pick maximizes

        reward_i + exploration * sqrt(2 ln N / n_i)

    with ``N`` total observations and ``n_i`` the candidate's own count;
    untried candidates are bootstrapped first in cost-rank order.  Ties
    resolve to the better cost rank, so for a fixed problem key the
    exploration sequence -- and therefore each candidate's trial count --
    is a pure function of the observed durations.
    """

    name = "ucb"

    def __init__(self, shortlist: int = DEFAULT_SHORTLIST,
                 min_trials: int = DEFAULT_MIN_TRIALS,
                 exploration: float = DEFAULT_UCB_EXPLORATION,
                 max_dispatches: int = DEFAULT_MAX_DISPATCHES,
                 seed: int = 0, clock=time.perf_counter,
                 persist: bool = True):
        if exploration < 0.0:
            raise ValueError(
                f"exploration must be >= 0, got {exploration}"
            )
        super().__init__(shortlist=shortlist, min_trials=min_trials,
                         epsilon=0.0, max_dispatches=max_dispatches,
                         seed=seed, clock=clock, persist=persist)
        self.exploration = exploration

    def _pick(self, st: _OnlineState) -> int:
        for i, ts in enumerate(st.times):
            if not ts:  # bootstrap: every arm once, in cost-rank order
                telemetry.incr("policy.choice", policy=self.name,
                               kind="explore")
                return i
        total = sum(len(ts) for ts in st.times)
        medians = [statistics.median(ts) for ts in st.times]
        t_best = min(medians)

        def ucb(i: int) -> float:
            reward = t_best / medians[i] if medians[i] > 0 else 1.0
            bonus = self.exploration * math.sqrt(
                2.0 * math.log(total) / len(st.times[i])
            )
            return reward + bonus

        # max by score; ties resolve to the better cost rank (lower index)
        pick = max(range(len(st.times)), key=lambda i: (ucb(i), -i))
        # "exploit" = the confidence bound agreed with the incumbent best;
        # any other arm means the bonus term drove the pick
        telemetry.incr("policy.choice", policy=self.name,
                       kind="exploit" if medians[pick] <= t_best else "explore")
        return pick


#: registry of named policies (pluggable via :func:`register_policy`)
POLICIES: dict[str, type[TuningPolicy]] = {
    "never": TuningPolicy,
    "auto": AutoTunePolicy,
    "always": AlwaysTunePolicy,
    "online": OnlineTunePolicy,
}

_shared: dict[str, TuningPolicy] = {}

#: guards POLICIES/_shared -- policy singletons carry online tuning state,
#: so a racing double-construction would silently fork (and then lose)
#: half the accumulated observations
_policy_lock = threading.Lock()


def register_policy(name: str, cls: type[TuningPolicy]) -> None:
    """Add (or override) a named policy usable as ``matmul(tune=name)``."""
    if not isinstance(cls, type) or not issubclass(cls, TuningPolicy):
        raise TypeError(f"{cls!r} is not a TuningPolicy subclass")
    with _policy_lock:
        POLICIES[name] = cls
        _shared.pop(name, None)


def get_policy(spec: str | TuningPolicy, **kwargs) -> TuningPolicy:
    """Resolve a policy name (or pass an instance through).

    Named lookups without kwargs return a process-shared instance, so the
    ``online`` policy accumulates observations across ``matmul`` calls --
    that sharing *is* the feature.  Pass kwargs (or an instance) for a
    private policy with custom knobs.
    """
    if isinstance(spec, TuningPolicy):
        return spec
    try:
        cls = POLICIES[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"tune must be one of {sorted(POLICIES)} or a TuningPolicy, "
            f"got {spec!r}"
        ) from None
    if kwargs:
        return cls(**kwargs)
    policy = _shared.get(spec)
    if policy is None:
        # double-checked: the hit (every ``matmul`` call) takes no lock,
        # and racing first uses still construct exactly one instance
        with _policy_lock:
            policy = _shared.get(spec)
            if policy is None:
                policy = _shared[spec] = POLICIES[spec]()
    return policy


def reset_shared_policies() -> None:
    """Drop the process-shared policy instances (tests; config changes)."""
    with _policy_lock:
        _shared.clear()


# UCB rides the same pluggable-registration path third-party policies use
# (it needs nothing register_policy does not provide), so matmul(tune="ucb")
# and `repro tune --policy ucb` resolve it like any other name.
register_policy("ucb", UCBTunePolicy)
