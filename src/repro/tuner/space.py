"""The tuning space: execution plans and their enumeration.

A :class:`Plan` pins down everything the paper leaves to the practitioner:
which algorithm (by catalog name, including shape-matched permutations),
how many recursive steps, which parallel schedule (including the
sub-group hybrid's P', swept over the divisors of the thread count),
which sequential executor, the leaf cutoff and the thread count.
``enumerate_plans`` generates the candidates for one problem shape and
ranks them by ``core.cost.plan_cost``'s predicted seconds on this machine,
so measurement (``repro.tuner.measure``) only has to time a short,
promising shortlist and an untuned shape is served a plan that respects
the Section 3.4 cutoff.  The ranking is memoised: dispatch's model stage
is a dictionary hit after the first call for a shape.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.algorithms import get_algorithm, list_algorithms
from repro.bench import machine
from repro.core.cost import plan_cost
from repro.core.recursion import CutoffPolicy
from repro.core.stability import max_stable_steps
from repro.core.transforms import permutation_family
from repro.parallel.schedules import SCHEMES

#: schedule names a plan may reference: the paper's three parallel schemes
#: (plus the sub-group hybrid) and the sequential compiled path.
PLAN_SCHEMES = ("sequential",) + SCHEMES

#: leaf subproblems below this dimension have left the flat part of the
#: dgemm ramp-up curve (Section 3.4); recursion stops there.
DEFAULT_MIN_LEAF = 64

#: the float32 space recurses deeper: sgemm's ramp-up knee sits lower
#: (half the bytes per entry, double the FMA width), so smaller leaves
#: still run at full rate -- Huang et al. (FLAME WN #82) observe the
#: crossover points shift accordingly.  Depth stays bounded by
#: ``core.stability.max_stable_steps``: lower precision buys depth only
#: while the compounded growth factor keeps half the mantissa.
FLOAT32_MIN_LEAF = 32

#: recursion-depth caps per space (float32 may go one deeper, stability
#: permitting)
MAX_STEPS = {"float32": 4, "float64": 3}

#: plain-BLAS pseudo-algorithm name usable in plans
DGEMM = "dgemm"

#: serving backends a plan may name: the NumPy interpreter
#: (``repro.core.recursion``, every host) or the compiled C chain kernels
#: (hosts where ``repro.codegen.cbackend.available()`` -- enumerated only
#: there)
PLAN_BACKENDS = ("numpy", "compiled")


def default_min_leaf(dtype: str = "float64") -> int:
    """Leaf cutoff for a dtype's candidate space."""
    return FLOAT32_MIN_LEAF if str(dtype) == "float32" else DEFAULT_MIN_LEAF


def trivial_dim(dtype: str = "float64") -> int:
    """Problems with any dimension below this go straight to plain BLAS.

    Twice the dtype's leaf cutoff: one recursive step would already
    produce sub-cutoff leaves, so no fast plan can exist (Section 3.4).
    Dtype-aware for the same reason the leaf cutoff is -- float32's knee
    sits lower, so its fast-path region starts earlier.
    """
    return 2 * default_min_leaf(dtype)


@dataclasses.dataclass(frozen=True)
class Plan:
    """One fully specified way to execute a multiplication.

    ``algorithm`` is a catalog registry name (``strassen``, ``s424``, ...)
    or ``"dgemm"`` for the vendor BLAS; ``steps == 0`` also means plain
    BLAS.  ``scheme`` is ``"sequential"`` or one of the parallel schemes;
    ``threads`` is the BLAS thread count (sequential/dgemm) or worker
    count (parallel schemes).  ``subgroup`` is the sub-group hybrid's P'
    (Section 4.3): the remainder leaves run on disjoint groups of
    ``subgroup`` threads, so it must divide ``threads``; ``None`` defers
    to :func:`repro.parallel.schedules.default_subgroup` at execution
    time and is the only legal value for every other scheme.

    ``backend`` picks the *sequential* executor of a fast plan:
    ``"numpy"`` (the interpreter, :func:`repro.core.recursion.multiply`,
    in a Section 4.1 arena) or ``"compiled"`` (the driver and fused
    single-pass C chain kernels of :mod:`repro.codegen.cbackend`, which
    degrade in-band to the interpreter).  It is sequential-only and
    meaningless for dgemm, which has no chains to fuse.  Which kernels
    form the chains of a *parallel* scheme is not a plan dimension: the
    schedule decides per call from its operands
    (:func:`repro.codegen.cbackend.chains_fused`), and the arena and the
    cost model follow the same predicate.
    """

    algorithm: str = DGEMM
    steps: int = 0
    scheme: str = "sequential"
    threads: int = 1
    subgroup: int | None = None
    backend: str = "numpy"

    def __post_init__(self):
        if self.scheme not in PLAN_SCHEMES:
            raise ValueError(
                f"scheme must be one of {PLAN_SCHEMES}, got {self.scheme!r}"
            )
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.backend not in PLAN_BACKENDS:
            raise ValueError(
                f"backend must be one of {PLAN_BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "compiled":
            if self.algorithm == DGEMM or self.steps == 0:
                raise ValueError(
                    "backend='compiled' needs a fast algorithm with "
                    "steps >= 1; dgemm has no chains to compile"
                )
            if self.scheme != "sequential":
                raise ValueError(
                    f"backend='compiled' serves the sequential path only, "
                    f"not scheme {self.scheme!r} (a parallel schedule "
                    f"picks its chain kernels itself)"
                )
        if self.subgroup is not None:
            if self.scheme != "hybrid-subgroup":
                raise ValueError(
                    f"subgroup (P') only applies to the hybrid-subgroup "
                    f"scheme, not {self.scheme!r}"
                )
            if self.subgroup < 1 or self.threads % self.subgroup:
                raise ValueError(
                    f"subgroup must be a divisor of threads={self.threads}, "
                    f"got {self.subgroup}"
                )

    @property
    def is_dgemm(self) -> bool:
        return self.algorithm == DGEMM or self.steps == 0

    def describe(self) -> str:
        if self.is_dgemm:
            return f"dgemm({self.threads}t)"
        scheme = self.scheme
        if self.subgroup is not None:
            scheme = f"{scheme}[P'={self.subgroup}]"
        # the backend is part of a plan's identity (quarantine ledger keys
        # and cache displays go through describe), so surface it
        suffix = " [cc]" if self.backend == "compiled" else ""
        return (
            f"{self.algorithm} steps={self.steps} {scheme}"
            f"({self.threads}t){suffix}"
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Plan":
        if not isinstance(d, dict):
            raise TypeError(f"plan payload must be a dict, got "
                            f"{type(d).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


def retarget_backend(plan: Plan, backend: str) -> Plan:
    """The same plan pinned to ``backend``, validating compatibility.

    ``backend`` names the sequential executor, so ``"compiled"`` requires
    a sequential fast plan: dgemm has no chains, and a parallel scheme
    picks its chain kernels by itself, per call (see :class:`Plan`) --
    incompatible retargets raise ``ValueError`` rather than silently
    returning a plan whose field means nothing.
    """
    if backend not in PLAN_BACKENDS:
        raise ValueError(
            f"backend must be one of {PLAN_BACKENDS}, got {backend!r}"
        )
    if plan.backend == backend:
        return plan
    if backend == "compiled" and (plan.is_dgemm
                                  or plan.scheme != "sequential"):
        raise ValueError(
            f"plan {plan.describe()} cannot serve backend='compiled' "
            f"(needs a sequential fast plan)"
        )
    return dataclasses.replace(plan, backend=backend)


def compiled_backend_available() -> bool:
    """True when the compiled C chain backend can serve plans here.

    Lazy import so merely enumerating plans on a host without a compiler
    never pays the probe's import cost twice; the underlying probe result
    is process-cached by ``cbackend.available``.
    """
    from repro.codegen import cbackend

    return cbackend.available()


@functools.lru_cache(maxsize=1)
def candidate_algorithms() -> list[str]:
    """All catalog names the tuner considers.

    Every exact root algorithm plus the base-case permutations of each
    (Props. 2.1/2.2), so rectangular shapes can pick an orientation that
    matches, e.g. ``s424`` for the outer-product ``N x k x N`` regime.
    The cost model, not this list, decides which orientation fits a shape.
    """
    roots: list[tuple[str, object]] = []
    for root in list_algorithms(include_apa=False):
        try:
            roots.append((root, get_algorithm(root)))
        except KeyError:
            continue
    names = [name for name, _ in roots]
    covered = {alg.base_case for _, alg in roots}
    for _, alg in roots:
        for base in permutation_family(alg):
            if base in covered:
                continue
            name = "s%d%d%d" % base
            try:
                get_algorithm(name)
            except KeyError:
                continue
            covered.add(base)
            names.append(name)
    return sorted(set(names))


def max_useful_steps(
    base: tuple[int, int, int], p: int, q: int, r: int,
    min_leaf: int = DEFAULT_MIN_LEAF, cap: int = 3,
) -> int:
    """Deepest recursion whose leaves stay >= ``min_leaf`` in every dim."""
    m, k, n = base
    policy = CutoffPolicy(max_steps=cap, min_dim=min_leaf)
    steps = 0
    while policy.should_recurse(steps, p, q, r, m, k, n):
        p, q, r = p // m, q // k, r // n
        steps += 1
    return steps


def subgroup_candidates(threads: int) -> list[int]:
    """P' values the hybrid-subgroup sub-space sweeps: the proper divisors
    of ``threads`` (Section 4.3 requires P' | P; ``P' == P`` degenerates
    to the plain hybrid's whole-pool remainder phase, so it is excluded --
    the ``hybrid`` candidate already covers it)."""
    return [d for d in range(1, threads) if threads % d == 0]


def enumerate_plans(
    p: int,
    q: int,
    r: int,
    threads: int = 1,
    min_leaf: int | None = None,
    max_candidates: int | None = None,
    dtype: str = "float64",
) -> list[Plan]:
    """Candidate plans for one shape, best-ranked (by the cost model) first.

    The space is algorithm x steps x schedule (x P' for the sub-group
    hybrid), pruned: recursion depths whose leaves drop below ``min_leaf``
    are skipped, and fast plans predicted no faster than plain dgemm are
    dropped (they cannot win).  The dgemm baseline plan is always
    included, so the list is never empty.

    With ``threads > 1`` every parallel scheme is enumerated -- ranking
    (:func:`repro.core.cost.plan_cost`'s waves, traffic and task terms),
    not list slicing, decides which schemes make a shortlist -- and the
    ``hybrid-subgroup`` scheme is swept over :func:`subgroup_candidates`
    per (algorithm, steps) pair, so the decisive P' knob of the paper's
    Section 4.3 is an explicit tuning dimension.

    The space is dtype-specific: float32 uses a lower leaf cutoff and a
    deeper step cap (``FLOAT32_MIN_LEAF`` / ``MAX_STEPS``), but every
    (algorithm, steps) pair is additionally bounded by
    :func:`repro.core.stability.max_stable_steps` so the extra depth never
    exceeds the precision's growth budget.

    On hosts with a working C compiler every sequential candidate gets a
    ``backend="compiled"`` twin, scored with the fused chains' lower
    traffic; hosts without one never see a compiled candidate, so tuning
    stays portable.

    Memoised per shape, dtype, thread count, cutoff, compiler availability
    (which also decides the kernels the parallel schemes are priced for)
    and machine calibration (taken lazily here, on the first lookup for a
    ``(dtype, threads)`` pair): only the first call for a shape scores.
    """
    dtype = str(dtype)
    if min_leaf is None:
        min_leaf = default_min_leaf(dtype)
    plans = _ranked_plans(p, q, r, dtype, threads, min_leaf,
                          compiled_backend_available(),
                          machine.calibration(dtype, threads, p * q * r))
    if max_candidates is None:
        return list(plans)
    head = list(plans[:max_candidates])
    if not any(pl.is_dgemm for pl in head):
        head[-1:] = [next(pl for pl in plans if pl.is_dgemm)]
    return head


@functools.lru_cache(maxsize=4096)
def _ranked_plans(p: int, q: int, r: int, dtype: str, threads: int,
                  min_leaf: int, compiler: bool,
                  calibration) -> tuple[Plan, ...]:
    """The whole ranked space behind :func:`enumerate_plans`.
    ``calibration`` (what the scores are computed from) is part of the
    key only: a new calibration is a new ranking.  So is ``compiler`` at
    ``threads > 1``, where it adds no candidate but decides which kernels
    :func:`repro.core.cost.plan_cost` prices the parallel schemes for."""
    cap = MAX_STEPS.get(dtype, MAX_STEPS["float64"])
    variants = [(scheme, sub, "numpy")
                for scheme in (SCHEMES if threads > 1 else ("sequential",))
                for sub in (subgroup_candidates(threads)
                            if scheme == "hybrid-subgroup" else [None])]
    if compiler and threads <= 1:
        variants.append(("sequential", None, "compiled"))
    dgemm_cost = plan_cost(None, p, q, r, 0, threads=threads, dtype=dtype)
    scored: list[tuple[float, Plan]] = [
        (dgemm_cost, Plan(threads=threads))
    ]
    for name in candidate_algorithms():
        alg = get_algorithm(name)
        depth = max_useful_steps(alg.base_case, p, q, r,
                                 min_leaf=min_leaf, cap=cap)
        depth = min(depth, max_stable_steps(alg, dtype))
        for steps in range(1, depth + 1):
            for scheme, sub, backend in variants:
                cost = plan_cost(alg, p, q, r, steps, scheme=scheme,
                                 threads=threads, subgroup=sub,
                                 backend=backend, dtype=dtype)
                if cost < dgemm_cost:
                    scored.append((cost, Plan(
                        algorithm=name, steps=steps, scheme=scheme,
                        threads=threads, subgroup=sub, backend=backend,
                    )))
    scored.sort(key=lambda cp_: (cp_[0], cp_[1].describe()))
    return tuple(pl for _, pl in scored)
