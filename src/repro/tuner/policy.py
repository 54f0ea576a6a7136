"""Tuning policies: whether dispatch measures before it serves.

The paper picks a fast algorithm per shape by measuring offline; the
calibrated cost model (:mod:`repro.core.cost`) stands in where nothing was
measured.  A policy decides which of the two a call leans on, and nothing
else -- every policy is stateless, so one instance per name serves every
thread:

- ``never``   -- pure dispatch: trivial -> cache -> nearest -> cost model.
  Never measures (the default; the production hot path);
- ``auto``    -- when a shape resolves to the cost model, time the
  cost-ranked shortlist on synthetic operands once (blocking) and cache
  the winner, so every later call is a cache hit;
- ``always``  -- re-tune on every non-trivial call (benchmarking and
  diagnostics, never production).

``matmul_batched`` reads the same policies: a batch runs the plan
``select`` resolves for its shape, so ``auto`` measures a batch's shape
once, as it would a single call's.
"""

from __future__ import annotations

from repro.tuner.cache import PlanCache
from repro.tuner.space import Plan

#: shortlist size ``auto`` / ``always`` measure (cost-model-ranked head of
#: the space)
DEFAULT_SHORTLIST = 4


class TuningPolicy:
    """The ``never`` policy: ``select`` returns ``(plan, source)`` exactly
    as :func:`repro.tuner.dispatch.get_plan` resolves it, and nothing is
    ever measured.  Subclasses measure first and then report source
    ``"tuned"``."""

    name = "never"

    def select(self, p: int, q: int, r: int, dtype: str, threads: int,
               cache: PlanCache) -> tuple[Plan, str]:
        from repro.tuner.dispatch import get_plan

        return get_plan(p, q, r, dtype=dtype, threads=threads, cache=cache)


class AutoTunePolicy(TuningPolicy):
    """Offline-tune (synthetic operands, blocking) when dispatch has no
    measured evidence for the key -- a cost-model resolution -- and cache
    the measured winner."""

    name = "auto"

    def __init__(self, shortlist: int = DEFAULT_SHORTLIST,
                 trials: int = 1, persist: bool = True):
        self.shortlist = shortlist
        self.trials = trials
        self.persist = persist

    def should_tune(self, source: str) -> bool:
        return source == "model"

    def select(self, p, q, r, dtype, threads, cache):
        plan, source = super().select(p, q, r, dtype, threads, cache)
        if source != "trivial" and self.should_tune(source):
            from repro.tuner.measure import tune_shape

            report = tune_shape(
                p, q, r, dtype=dtype, threads=threads, cache=cache,
                max_candidates=self.shortlist, trials=self.trials,
                persist=self.persist,
            )
            return report.best.plan, "tuned"
        return plan, source


class AlwaysTunePolicy(AutoTunePolicy):
    """Re-tune on every non-trivial call (diagnostics, never production)."""

    name = "always"

    def should_tune(self, source: str) -> bool:
        return True


_BY_NAME = {cls.name: cls()
            for cls in (TuningPolicy, AutoTunePolicy, AlwaysTunePolicy)}


def get_policy(spec: str | TuningPolicy) -> TuningPolicy:
    """Resolve a ``tune=`` name (``"never"``, ``"auto"``, ``"always"``) or
    pass a :class:`TuningPolicy` through; anything else is the one
    ``ValueError`` both ``matmul`` and ``matmul_batched`` raise."""
    if isinstance(spec, TuningPolicy):
        return spec
    try:
        return _BY_NAME[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"tune must be one of {tuple(_BY_NAME)} or a TuningPolicy, "
            f"got {spec!r}"
        ) from None
