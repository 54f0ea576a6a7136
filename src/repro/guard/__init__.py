"""``repro.guard``: fault tolerance threaded through the dispatch stack.

Two halves: :mod:`repro.guard.faults` (deterministic fault injection --
the named points chaos tests and ``REPRO_FAULTS=`` arm) and
:mod:`repro.guard.chain` (the guarded execution ladder behind
``repro.matmul(guard=)``: tuned plan -> cost-model plan -> classical
``np.matmul``, with plan quarantine, pool rebuild, and sampled numeric
guardrails).  See each module's docstring for the contract.

``faults`` imports eagerly (injection sites in pool/workspace/cache read
``faults.active`` at call time and depend only on telemetry + stdlib);
the chain's names load lazily so ``pool -> guard.faults`` never recurses
into ``chain -> pool``.
"""

from repro.guard import faults
from repro.guard.faults import InjectedFault, inject

_CHAIN_EXPORTS = (
    "GuardConfig",
    "GUARD_DEFAULT",
    "INFRASTRUCTURE_FAILURES",
    "NumericViolation",
    "WatchdogTimeout",
    "check_product",
    "default_guard",
    "reset_default_guard",
    "resolve_guard",
    "run_guarded",
    "shutdown_watchdog",
)

__all__ = ["faults", "InjectedFault", "inject", *_CHAIN_EXPORTS]


def __getattr__(name):
    if name in _CHAIN_EXPORTS or name == "chain":
        # importlib, not `from repro.guard import chain`: the from-import
        # form probes this very __getattr__ via hasattr and would recurse
        import importlib

        chain = importlib.import_module("repro.guard.chain")
        if name == "chain":
            return chain
        return getattr(chain, name)
    raise AttributeError(f"module 'repro.guard' has no attribute {name!r}")
