"""Machine model: dgemm ramp-up curves and the recursion-cutoff rule.

Figure 3 of the paper measures MKL dgemm for three problem shapes in serial
and in parallel, observes a "ramp-up" phase that flattens near N ~= 1500
(serial) / N ~= 5000 (24 threads), and derives the cutoff principle of
Section 3.4: *take a recursive step only if the subproblems still land on
the flat part of the curve* -- more precisely, if the relative performance
drop from the current size to the subproblem size exceeds the algorithm's
speedup per step, recursion cannot pay.

``GemmCurve`` is the measured object; ``should_recurse`` applies the rule;
``recommended_steps`` turns it into the step count used by benchmarks.

The tuner's cost model reads the same curve: :func:`calibration` measures,
once per machine, what :func:`repro.core.cost.plan_cost` predicts seconds
from, and keeps it in-process and under :func:`cache_root`.

This module is also the source of the **machine fingerprint**
(:func:`machine_fingerprint` / :func:`fingerprint_digest`): everything the
curves above depend on -- CPU model and ISA flags, core count, BLAS vendor
and thread ceiling, numpy version -- folded into a short digest.  Plan
cache entries, ``-march=native`` objects and calibrations are all keyed
by it, so what was tuned, built or measured on one box is detected (and
redone) rather than silently trusted on another.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import hashlib
import json
import os
import platform
import threading
import timeit
from pathlib import Path

import numpy as np

from repro.bench.metrics import effective_gflops, median_time
from repro.parallel import blas
from repro.util.matrices import random_matrix


# ------------------------------------------------------- machine fingerprint
def _cpu_model() -> str:
    """Human-readable CPU model, best effort across platforms."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _isa_flags() -> str:
    """The CPU's instruction-set flags as ``/proc/cpuinfo`` lists them
    ("" without one).  VMs that mask AVX levels share a model string and
    differ here, and ``-march=native`` follows the flags, not the name."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return " ".join(sorted(line.split(":", 1)[1].split()))
    except OSError:
        pass
    return ""


@functools.lru_cache(maxsize=1)
def machine_fingerprint() -> dict:
    """The hardware/software facts a tuned plan's validity depends on.

    Computed once per process.  Every field is *configuration*, never live
    mutable state: the BLAS thread ceiling comes from the pinning
    environment variables (the operator-level knob that genuinely shifts
    tuning winners), not from ``blas.get_threads()``, whose value depends
    on whichever ``blas_threads`` context happens to be active at first
    call and would make the digest nondeterministic across processes on
    the same box.  Keys are stable and JSON-serializable; see
    :func:`fingerprint_digest` for the cache stamp.
    """
    env_threads = (os.environ.get("OPENBLAS_NUM_THREADS")
                   or os.environ.get("OMP_NUM_THREADS"))
    try:
        blas_threads = int(env_threads) if env_threads else 0
    except ValueError:
        blas_threads = 0
    return {
        "cpu": _cpu_model(),
        # a digest, not the list: ~150 flags would swamp every display
        "isa": hashlib.sha256(_isa_flags().encode()).hexdigest()[:12],
        "cores": os.cpu_count() or 1,
        "blas": blas.library_name() or "unknown",
        # 0 = unpinned (use all cores); a pinned value changes the digest
        "blas_threads": blas_threads or os.cpu_count() or 1,
        "numpy": np.__version__,
    }


def fingerprint_digest(fingerprint: dict | None = None) -> str:
    """Short stable digest of a fingerprint (default: this machine's)."""
    fp = machine_fingerprint() if fingerprint is None else fingerprint
    blob = json.dumps(fp, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cache_root() -> Path:
    """Where this machine's derived files live (compiled objects,
    calibrations): ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME`` or
    ``~/.cache`` + ``repro``.  Per-user, never world-shared."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    home = Path(base).expanduser() if base else Path.home() / ".cache"
    return home / "repro"


@dataclasses.dataclass(frozen=True)
class GemmCurve:
    """Measured gemm performance over a size sweep for one shape family.

    ``sizes`` are the varying dimension N; ``gflops`` the measured rate.
    Interpolation is linear, clamped at the ends.
    """

    sizes: list[int]
    gflops: list[float]
    threads: int = 1
    shape: str = "square"
    dtype: str = "float64"

    def at(self, n: float) -> float:
        # by hand: the cost model reads this hundreds of times per ranking
        # and np.interp spends microseconds converting two short lists
        i = bisect.bisect_left(self.sizes, n)
        if i in (0, len(self.sizes)):
            return float(self.gflops[min(i, len(self.sizes) - 1)])
        (n0, n1), (g0, g1) = self.sizes[i - 1:i + 1], self.gflops[i - 1:i + 1]
        return float(g0 + (g1 - g0) * (n - n0) / (n1 - n0))

    def seconds(self, p: float, q: float, r: float) -> float:
        """Predicted time of one ``p x q x r`` gemm: its ``2pqr`` flops at
        the rate measured for the cube of the same volume.

        Past the last measured size the rate follows the ramp
        ``1/rate = a + b/n`` (Hockney's r_inf / n_half: a gemm's n^2
        overheads amortise over n^3 flops) through the last two points, so
        a curve still climbing at its top is not taken to have flattened
        there.  One that fell is held at the higher of the two: the top
        size gets the fewest runs and alone prices everything beyond it,
        and interference only ever slows a gemm down -- a dip up there is
        a neighbour's burst, and believing it makes every plan that cuts
        the product into smaller gemms look better than the vendor's.
        """
        n = (p * q * r) ** (1.0 / 3.0)
        rate = self.at(n)
        if n > self.sizes[-1] and len(self.sizes) > 1:
            (n1, n2), (r1, r2) = self.sizes[-2:], self.gflops[-2:]
            slope = (1 / r1 - 1 / r2) / (1 / n1 - 1 / n2)
            rate = max(r1, r2)
            if slope > 0:
                rate = 1 / (1 / r2 + slope * (1 / n - 1 / n2))
        return 2.0 * p * q * r / (rate * 1e9)

    @property
    def peak(self) -> float:
        return max(self.gflops)

    def flat_size(self, fraction: float = 0.9) -> int:
        """Smallest measured N reaching ``fraction`` of peak -- the start of
        the flat part of the ramp-up curve."""
        target = fraction * self.peak
        for n, g in zip(self.sizes, self.gflops):
            if g >= target:
                return n
        return self.sizes[-1]


def measure_gemm_curve(
    sizes: list[int],
    threads: int = 1,
    shape: str = "square",
    fixed: int | None = None,
    trials: int = 3,
    dtype: str = "float64",
    budget_s: float | None = None,
) -> GemmCurve:
    """Measure the vendor gemm over a size sweep (Figure 3).

    ``shape``: ``square`` (N x N x N), ``outer`` (N x fixed x N) or
    ``ts`` (N x fixed x fixed).  With ``budget_s`` every size gets as many
    trials as fit in that many seconds (at least one, at most
    ``16 * trials``) and the *best* of them counts, not the median: small
    sizes, cheap and noisy, get many, and the run or two a large size
    gets are not at the mercy of a neighbour's burst (interference only
    ever slows a gemm down).
    """
    gf = []
    with blas.blas_threads(threads):
        for n in sizes:
            if shape == "square":
                p, q, r = n, n, n
            elif shape == "outer":
                p, q, r = n, fixed, n
            elif shape == "ts":
                p, q, r = n, fixed, fixed
            else:
                raise ValueError(f"unknown shape {shape!r}")
            A = random_matrix(p, q, 0, dtype=dtype)
            B = random_matrix(q, r, 1, dtype=dtype)
            gemm = functools.partial(np.matmul, A, B)
            if budget_s is None:
                sec = median_time(gemm, trials=trials, warmup=1)
            else:
                # the warm-up run is also the yardstick
                sec = timeit.timeit(gemm, number=1)
                fit = max(1, min(16 * trials, int(budget_s / sec)))
                sec = min(sec, *timeit.repeat(gemm, number=1, repeat=fit))
            gf.append(effective_gflops(p, q, r, sec))
    return GemmCurve(list(sizes), gf, threads=threads, shape=shape,
                     dtype=str(dtype))


def should_recurse(
    curve: GemmCurve,
    n: int,
    split: int,
    speedup_per_step: float,
) -> bool:
    """Section 3.4 rule.

    Taking a step turns a size-``n`` leaf into size-``n // split`` leaves.
    If the gemm rate drops by a larger ratio than the multiplication
    speedup gained, the step cannot pay.  (The converse is not guaranteed
    -- addition overhead may still eat the gain -- which is why benchmarks
    take the best over 1..3 steps, like the paper.)
    """
    here = curve.at(n)
    there = curve.at(max(1, n // split))
    if there <= 0.0:
        return False
    drop = here / there - 1.0
    return drop < speedup_per_step


def recommended_steps(
    curve: GemmCurve,
    n: int,
    split: int,
    speedup_per_step: float,
    max_steps: int = 3,
) -> int:
    """Apply :func:`should_recurse` greedily down the recursion."""
    steps = 0
    size = n
    while steps < max_steps and size >= split and should_recurse(
        curve, size, split, speedup_per_step
    ):
        steps += 1
        size //= split
    return steps


# -------------------------------------------------------------- calibration
#: gemm sizes every calibration measures (most of its ~0.05 s of CPU is
#: the 512^3 trials), and the one it grows by when somebody prices a gemm
#: beyond them: two 1024^3 gemms (the first, on cold pages, tells nothing)
#: cost more than all the rest, so only processes that rank shapes that
#: large pay for them -- and they need the point: vendor gemms still gain
#: ~10% from 512 to 1024, which decides between dgemm, one recursive step
#: and two up there (and sets the slope ``GemmCurve.seconds`` carries on).
CALIBRATION_SIZES = (32, 64, 128, 256, 512)
CALIBRATION_REACH = 1024


@dataclasses.dataclass(frozen=True, eq=False)
class Calibration:
    """What :func:`repro.core.cost.plan_cost` knows about this machine for
    one dtype and thread budget.  Compared and hashed by identity: the
    tuner's memo of ranked plans keys on the object, so replacing a
    calibration invalidates what was ranked under the old one.

    ``gemm``    : vendor gemm rate by size at ``threads`` BLAS threads.
    ``add_gbs`` : bandwidth, GB/s, of ``threads`` concurrent block additions
                  (two strided operands read, one contiguous result written).
    ``call_s``  : fixed seconds per product of a fast call -- the Python and
                  small-array cost a recursion node pays whatever its size.
    ``task_s``  : fixed seconds per task through a pool of ``threads``
                  workers (0 when ``threads == 1``).
    """

    dtype: str
    threads: int
    gemm: GemmCurve
    add_gbs: float
    call_s: float
    task_s: float

    @classmethod
    def from_dict(cls, d: dict) -> "Calibration":
        """Inverse of ``dataclasses.asdict``; ``ValueError`` / ``KeyError``
        / ``TypeError`` on a payload the model could not divide by."""
        cal = cls(**{**d, "gemm": GemmCurve(**d["gemm"])})
        rates = cal.gemm.gflops
        if not (rates and len(rates) == len(cal.gemm.sizes)
                and min(*rates, cal.add_gbs) > 0.0
                and min(cal.call_s, cal.task_s) >= 0.0):
            raise ValueError("calibration payload out of range")
        return cal


def measure_calibration(dtype: str = "float64", threads: int = 1) -> Calibration:
    """Measure one :class:`Calibration` (~0.05 s of CPU, nothing cached)."""
    from repro.algorithms import get_algorithm
    from repro.core.recursion import multiply
    from repro.core.workspace import Workspace
    from repro.parallel.pool import WorkerPool

    gemm = measure_gemm_curve(list(CALIBRATION_SIZES), threads=threads,
                              dtype=dtype, budget_s=0.015)
    # the interpreter's one-step Strassen at 16^3 is all fixed cost: seven
    # products, each with its share of slicing, arena and chain calls
    alg = get_algorithm("strassen")
    A = random_matrix(16, 16, 0, dtype=dtype)
    C = np.empty_like(A)
    ws = Workspace.for_recursion([alg.base_case], 16, 16, 16, dtype,
                                 algorithms=[alg])
    call_s = median_time(
        lambda: multiply(A, A, alg, steps=1, out=C, workspace=ws),
        trials=5, warmup=2) / alg.rank

    n = 512
    src = np.ones((2 * n, 2 * n), dtype=dtype)
    quads = [src[i:i + n, j:j + n] for i in (0, n) for j in (0, n)]
    sums = [np.empty((n, n), dtype=dtype) for _ in range(threads)]

    def add(i: int) -> None:
        np.add(quads[i % 4], quads[(i + 1) % 4], out=sums[i])

    task_s = 0.0
    if threads == 1:
        add_s = median_time(lambda: add(0), trials=7, warmup=1)
    else:
        # what a task costs beyond its share of perfectly parallel work,
        # on the payload pool tasks carry: a small single-threaded gemm
        # (it drops and retakes the GIL, which an empty task would not)
        X = random_matrix(128, 128, 2, dtype=dtype)
        burst = 4 * threads
        prods = [np.empty_like(X) for _ in range(burst)]

        def multiply(i: int) -> None:
            np.matmul(X, X, out=prods[i])

        with WorkerPool(threads) as pool:
            add_s = median_time(lambda: pool.map_wait(add, range(threads)),
                                trials=7, warmup=1)
            with blas.blas_threads(1):
                alone = median_time(lambda: multiply(0), trials=5)
                fanned = median_time(
                    lambda: pool.map_wait(multiply, range(burst)), trials=3)
        task_s = max(0.0, fanned / burst - alone / threads)
    add_gbs = threads * 3 * sums[0].nbytes / add_s * 1e-9
    return Calibration(str(dtype), threads, gemm, add_gbs, call_s, task_s)


_calibrations: dict[tuple[str, int], Calibration] = {}
_calibration_lock = threading.Lock()


def calibration(dtype: str = "float64", threads: int = 1,
                volume: float = 0) -> Calibration:
    """This machine's :class:`Calibration` for ``(dtype, threads)``, its
    gemm curve reaching the cube of ``volume`` = p*q*r, the largest gemm
    the caller will price (up to :data:`CALIBRATION_REACH`).

    Taken lazily: from this process, else from
    ``cache_root()/calibration-<fingerprint>-<dtype>-<threads>t.json``,
    else measured now and filed there (an unwritable cache dir costs
    persistence only).  Anything that is not float32 is modelled as
    float64, as the candidate space does.
    """
    key = ("float32" if str(dtype) == "float32" else "float64", int(threads))
    top = min(volume ** (1.0 / 3.0), CALIBRATION_REACH)
    cal = _calibrations.get(key)
    if cal is not None and cal.gemm.sizes[-1] >= top:
        return cal
    with _calibration_lock:
        cal = known = _calibrations.get(key)
        path = cache_root() / (f"calibration-{fingerprint_digest()}-"
                               f"{key[0]}-{key[1]}t.json")
        if cal is None:
            try:
                cal = known = Calibration.from_dict(
                    json.loads(path.read_text()))
            except (OSError, ValueError, KeyError, TypeError):
                cal = measure_calibration(*key)
        if cal.gemm.sizes[-1] < top:
            more = measure_gemm_curve([CALIBRATION_REACH], threads=key[1],
                                      dtype=key[0], budget_s=0.015)
            cal = dataclasses.replace(cal, gemm=dataclasses.replace(
                cal.gemm, sizes=cal.gemm.sizes + more.sizes,
                gflops=cal.gemm.gflops + more.gflops))
        if cal is not known:
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_text(json.dumps(dataclasses.asdict(cal)))
                os.replace(tmp, path)
            except OSError:
                pass
        _calibrations[key] = cal
    return cal


def forget_calibrations() -> int:
    """Delete every ``calibration-*.json`` under :func:`cache_root` and drop
    the in-process copies, so the next model-stage lookup measures again
    (``repro cache doctor --fix``: one noisy first calibration is otherwise
    kept for good).  Returns the number of files removed."""
    with _calibration_lock:
        _calibrations.clear()
        paths = list(cache_root().glob("calibration-*.json"))
        for path in paths:
            path.unlink(missing_ok=True)
    return len(paths)
