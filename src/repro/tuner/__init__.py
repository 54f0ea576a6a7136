"""Shape-aware autotuner and plan-cache dispatch (the paper, made a system).

The paper's practical finding (Figures 5-6) is that *no single fast
algorithm wins everywhere*: the best base case, recursion depth and
parallel schedule depend on problem shape, dtype and thread count.  This
subsystem turns that finding into machinery:

- :mod:`repro.tuner.space`    -- the :class:`Plan` dataclass and candidate
  enumeration (dtype-specific: float32 recurses deeper within its
  stability budget; thread-aware: the three parallel schemes),
  pruned/ranked by the ``core.cost`` analytical model including its
  communication terms;
- :mod:`repro.tuner.measure`  -- timed trials (``tune`` / ``tune_shape``)
  under a wall-clock budget on deterministic seeded operands, reporting
  effective GFLOPS;
- :mod:`repro.tuner.cache`    -- the persistent, versioned JSON plan cache
  keyed by ``(m, k, n, dtype, threads)`` with a nearest-shape fallback at
  the same thread count; every entry carries a machine fingerprint, so a
  cache tuned on another box is bypassed and re-tuned, never trusted;
- :mod:`repro.tuner.policy`   -- the three tuning policies: ``never`` /
  ``auto`` (measure the shortlist when a shape resolves to the cost
  model) / ``always``;
- :mod:`repro.tuner.dispatch` -- ``matmul(A, B)``: trivial -> cache ->
  nearest -> cost model, measuring first per the selected policy.

Quick start::

    import numpy as np
    from repro import tuner

    tuner.tune([(1536, 1536, 1536)], budget_s=20)   # once, persisted
    C = tuner.matmul(A, B)                          # dispatches the winner

    # or let the first call of an untuned shape measure it
    C = tuner.matmul(A, B, tune="auto")
"""

from repro.tuner.batched import BatchPlan, get_batch_plan, matmul_batched
from repro.tuner.cache import PlanCache, SCHEMA_VERSION, default_cache_path
from repro.tuner.dispatch import (
    build_workspace,
    execute_plan,
    get_plan,
    matmul,
    reset_shared_cache,
    reset_workspaces,
    shutdown_shared_pools,
    workspace_for,
)
from repro.tuner.measure import (
    Measurement,
    ShapeReport,
    measure_plan,
    tune,
    tune_shape,
    tuning_operands,
)
from repro.tuner.policy import (
    AlwaysTunePolicy,
    AutoTunePolicy,
    TuningPolicy,
    get_policy,
)
from repro.tuner.space import (
    Plan,
    candidate_algorithms,
    enumerate_plans,
)

__all__ = [
    "BatchPlan",
    "Plan",
    "PlanCache",
    "SCHEMA_VERSION",
    "AlwaysTunePolicy",
    "AutoTunePolicy",
    "Measurement",
    "build_workspace",
    "ShapeReport",
    "TuningPolicy",
    "candidate_algorithms",
    "default_cache_path",
    "enumerate_plans",
    "execute_plan",
    "get_batch_plan",
    "get_plan",
    "get_policy",
    "matmul",
    "matmul_batched",
    "measure_plan",
    "reset_shared_cache",
    "reset_workspaces",
    "shutdown_shared_pools",
    "tune",
    "tune_shape",
    "tuning_operands",
    "workspace_for",
]
