"""The tuning space: execution plans and their enumeration.

A :class:`Plan` pins down everything the paper leaves to the practitioner:
which algorithm (by catalog name, including shape-matched permutations),
how many recursive steps, which parallel schedule (including the
sub-group hybrid's P', swept over the divisors of the thread count),
the leaf cutoff and the thread count.  Which kernels form the chains is
not in the plan: it is a rule on the operands
(:func:`repro.codegen.cbackend.chains_fused`).
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
from repro.codegen import cbackend
from repro.core.cost import plan_cost
from repro.core.recursion import CutoffPolicy
from repro.core.stability import max_stable_steps
from repro.core.transforms import permutation_family
from repro.parallel.schedules import SCHEMES

#: schedule names a plan may reference: the paper's three parallel schemes
#: (plus the sub-group hybrid) and the sequential path.
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

    Which executor runs a fast plan is not a plan dimension: every
    scheme runs the compiled step whenever
    :func:`repro.codegen.cbackend.chains_fused` holds for the operands,
    the interpreter otherwise, and the arena and the cost model follow
    the same rule.  ``backend`` is
    accepted for old callers and read by nothing: it takes no part in a
    plan's identity.
    """

    algorithm: str = DGEMM
    steps: int = 0
    scheme: str = "sequential"
    threads: int = 1
    subgroup: int | None = None
    backend: str = dataclasses.field(default="numpy", compare=False)

    def __post_init__(self):
        if self.scheme not in PLAN_SCHEMES:
            raise ValueError(
                f"scheme must be one of {PLAN_SCHEMES}, got {self.scheme!r}"
            )
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
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
        return f"{self.algorithm} steps={self.steps} {scheme}({self.threads}t)"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Plan":
        if not isinstance(d, dict):
            raise TypeError(f"plan payload must be a dict, got "
                            f"{type(d).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


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

    Every candidate is priced for the kernels that will form its chains
    (:func:`repro.core.cost.plan_cost` asks
    :func:`repro.codegen.cbackend.chains_fused`): the fused C kernels on
    a host with a working compiler and the vendor's cblas, the
    interpreter elsewhere.

    Memoised per shape, dtype, thread count, cutoff, compiler availability
    (which decides the kernels every fast plan is priced for) and machine
    calibration (taken lazily here, on the first lookup for a
    ``(dtype, threads)`` pair): only the first call for a shape scores.
    """
    dtype = str(dtype)
    if min_leaf is None:
        min_leaf = default_min_leaf(dtype)
    plans = _ranked_plans(p, q, r, dtype, threads, min_leaf,
                          cbackend.available(),
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
    key only: a new calibration is a new ranking.  So is ``compiler``,
    which adds no candidate but decides which kernels
    :func:`repro.core.cost.plan_cost` prices every fast plan for."""
    cap = MAX_STEPS.get(dtype, MAX_STEPS["float64"])
    variants = [(scheme, sub)
                for scheme in (SCHEMES if threads > 1 else ("sequential",))
                for sub in (subgroup_candidates(threads)
                            if scheme == "hybrid-subgroup" else [None])]
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
            for scheme, sub in variants:
                cost = plan_cost(alg, p, q, r, steps, scheme=scheme,
                                 threads=threads, subgroup=sub, dtype=dtype)
                if cost < dgemm_cost:
                    scored.append((cost, Plan(
                        algorithm=name, steps=steps, scheme=scheme,
                        threads=threads, subgroup=sub,
                    )))
    scored.sort(key=lambda cp_: (cp_[0], cp_[1].describe()))
    return tuple(pl for _, pl in scored)
