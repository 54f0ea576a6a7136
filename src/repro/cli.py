"""Command-line interface: ``python -m repro <subcommand>`` (``--help``
lists them), a thin shell over the library.

``multiply`` times one request against the vendor BLAS at the same
thread count and reports effective GFLOPS (Eq. 3).  By default it pins
``Plan(--algorithm, --steps, --scheme, --threads, --subgroup)`` and
serves it through ``repro.matmul``'s own tail -- the arena from
``tuner.workspace_for``, then ``tuner.execute_plan``, as the benchmark's
``fast_vs_blas`` times them; ``--auto`` (implied by ``--explain``,
``--guard`` and ``--batch``) lets dispatch resolve the plan instead.
What ran -- plan, source, arena -- is read off the call's own dispatch
record, never a second lookup, and every human rendering of a record or
of a registry summary is ``obs.render_record`` / ``obs.render_summary``
(``multiply``, ``multiply --explain``, ``stats``).  ``cache show`` and
``cache doctor`` print one report from one pass over the store; every
subcommand resolves one ``PlanCache`` (``--cache`` or the default path)
and passes it to every call.  ``search`` is forwarded verbatim to
``repro.search.driver``.

Each subcommand is also importable as a function for tests
(``cmd_list``, ``cmd_verify``, ...); they return process exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    from repro.tuner.space import PLAN_SCHEMES

    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description="Practical parallel fast matrix multiplication "
                    "(Benson & Ballard, PPoPP 2015 reproduction)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="show the algorithm catalog (Table 2)")
    p.add_argument("--apa", action="store_true", help="include APA entries")

    p = sub.add_parser("verify", help="validate catalog decompositions")
    p.add_argument("names", nargs="*", help="algorithm names (default: all)")

    mult = p = sub.add_parser("multiply", help="time a fast multiply vs BLAS")
    p.add_argument("--algorithm", "-a", default="strassen")
    p.add_argument("--shape", nargs=3, type=int, metavar=("P", "Q", "R"),
                   default=None, help="problem shape (default: square --size)")
    p.add_argument("--size", "-n", type=int, default=1024)
    p.add_argument("--steps", "-s", type=int, default=1)
    p.add_argument("--scheme", default="sequential", choices=PLAN_SCHEMES)
    p.add_argument("--subgroup", type=int, default=None,
                   help="P' of the hybrid-subgroup scheme (must divide the "
                        "thread count; default: threads // 2)")
    p.add_argument("--auto", action="store_true",
                   help="let the tuner pick the plan (ignores --algorithm); "
                        "saves an obs snapshot for a later `repro stats`")
    p.add_argument("--explain", action="store_true",
                   help="decision trace of one call: ranked shortlist, its "
                        "record, the registry summary; implies --auto")
    p.add_argument("--batch", type=int, default=None, metavar="N",
                   help="a batch of N products through repro.matmul_batched "
                        "vs the stacked vendor BLAS; implies --auto")
    p.add_argument("--guard", action="store_true",
                   help="through the repro.guard fallback chain (tuned -> "
                        "cost-model -> classical); implies --auto")

    tune = p = sub.add_parser("tune", help="tune plans for a set of shapes "
                                           "and persist them to the plan "
                                           "cache")
    p.add_argument("--shapes", nargs="+", metavar="PxQxR", type=_parse_shape,
                   default=[(1024, 1024, 1024), (1024, 416, 1024),
                            (2048, 416, 416)],
                   help="problem shapes, e.g. 1536x1536x1536 (default: one "
                        "per paper regime: square, outer product, "
                        "tall-skinny)")
    p.add_argument("--dtype", default="float64",
                   choices=["float32", "float64"])
    p.add_argument("--budget-seconds", type=float, default=30.0,
                   help="wall-clock budget per shape")
    p.add_argument("--candidates", type=int, default=8,
                   help="size of the measured shortlist per shape")
    p.add_argument("--csv", default=None,
                   help="also export the measurements as CSV")
    p.add_argument("--dry-run", action="store_true",
                   help="list the ranked candidate plans without timing")

    store = p = sub.add_parser("cache", help="inspect, invalidate, or "
                                             "health-check the plan cache")
    p.add_argument("action", choices=["show", "invalidate", "doctor"])
    p.add_argument("--all", action="store_true",
                   help="invalidate every entry, not just fingerprint-stale "
                        "ones")
    p.add_argument("--fix", action="store_true",
                   help="with doctor: drop unparsable entries, invalidate "
                        "stale ones, clear the failure ledger, remove the "
                        ".corrupt sidecar and the machine calibrations, and "
                        "rewrite the cache file")
    for p in (mult, tune):
        p.add_argument("--threads", type=int, default=None,
                       help="thread count of the plans and of the vendor "
                            "BLAS (default: all cores, as repro.matmul)")
        p.add_argument("--trials", type=int, default=5 if p is mult else 3,
                       help="median-of-k trials")
        p.add_argument("--seed", type=int, default=0,
                       help="operand-generation seed")
    for p in (mult, tune, store):
        p.add_argument("--cache", default=None,
                       help="plan-cache file (default: $REPRO_PLAN_CACHE or "
                            "~/.cache/repro/plan_cache.json)")

    p = sub.add_parser("codegen", help="print the descriptor the C "
                                       "library runs an algorithm from")
    p.add_argument("--algorithm", "-a", default="strassen")
    p.add_argument("--cse", action="store_true")

    p = sub.add_parser("search", help="ALS search for a new algorithm "
                                      "(see repro.search.driver)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments forwarded to repro.search.driver")

    p = sub.add_parser("analyze", help="static analysis: descriptor "
                                       "verification, arena-discipline and "
                                       "concurrency lint, catalog validation")
    p.add_argument("--all", dest="run_all", action="store_true",
                   help="run every analyzer (default when none is selected)")
    for name, text in (
            ("cemit", "prove every descriptor the C library runs "
                      "computes its scheme (no compiler needed)"),
            ("arena", "mark/release balance of the source tree"),
            ("concurrency", "unlocked shared-state mutation, hot-path "
                            "allocation"),
            ("catalog", "shape/dtype/residual validation of catalog "
                        "entries")):
        p.add_argument(f"--{name}", dest="analyzers", action="append_const",
                       const=name, help=text)
    p.add_argument("--algorithm", "-a", action="append", dest="algorithms",
                   default=None, metavar="NAME",
                   help="restrict the cemit pass to these catalog "
                        "entries (repeatable; default: all)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings instead of a summary")

    p = sub.add_parser("stats", help="report the repro.obs telemetry "
                                     "registry (dispatch sources, arena "
                                     "health, span totals)")
    p.add_argument("--format", default="human",
                   choices=["human", "json", "prom"],
                   help="human summary (default), raw JSON snapshot, or "
                        "Prometheus text exposition")
    p.add_argument("--reset", action="store_true",
                   help="clear the registry (and the snapshot file, when "
                        "that is what was reported) after reporting")
    p.add_argument("--snapshot", default=None,
                   help="snapshot file to fall back to when the live "
                        "registry is empty (default: $REPRO_OBS_SNAPSHOT "
                        "or ~/.cache/repro/obs_snapshot.json)")
    return ap


# ---------------------------------------------------------------- commands
def cmd_list(args, out=sys.stdout) -> int:
    from repro.algorithms import get_algorithm, table2

    print(f"{'name':>14} {'base':>9} {'rank':>5} {'paper':>6} {'classical':>9} "
          f"{'speedup/step':>12} {'nnz':>6} {'kind':>6}  provenance", file=out)
    for e in table2():
        if e.apa and not args.apa:
            continue
        nnz = sum(get_algorithm(e.name).nnz())
        kind = "APA" if e.apa else "exact"
        base = "<%d,%d,%d>" % e.base_case
        paper = "-" if e.paper_rank is None else str(e.paper_rank)
        print(f"{e.name:>14} {base:>9} {e.rank:>5} {paper:>6} "
              f"{e.classical_rank:>9} {100 * e.speedup_per_step:>11.0f}% "
              f"{nnz:>6} {kind:>6}  {e.provenance}", file=out)
    return 0


def cmd_verify(args, out=sys.stdout) -> int:
    from repro.algorithms import get_algorithm, list_algorithms

    names = args.names or list_algorithms()
    worst = 0.0
    failures = 0
    for name in names:
        alg = get_algorithm(name)
        resid = alg.residual()
        ok = alg.apa or resid <= 1e-9
        failures += not ok
        worst = max(worst, 0.0 if alg.apa else resid)
        status = "APA " if alg.apa else ("ok  " if ok else "FAIL")
        print(f"{name:>14} <{alg.m},{alg.k},{alg.n}> rank {alg.rank:>3} "
              f"residual {resid:.2e}  {status}", file=out)
    print(f"{len(names)} checked, {failures} failures, "
          f"worst exact residual {worst:.2e}", file=out)
    return 1 if failures else 0


def cmd_multiply(args, out=sys.stdout) -> int:
    from repro import obs, tuner
    from repro.bench.metrics import effective_gflops, median_time
    from repro.codegen.cbackend import chains_fused
    from repro.parallel import blas, resolve_threads

    p, q, r = args.shape if args.shape else (args.size,) * 3
    try:
        if args.batch is not None and args.batch < 1:
            raise ValueError(f"--batch must be >= 1, got {args.batch}")
        threads = resolve_threads(args.threads)
        plan = tuner.Plan(args.algorithm, args.steps, args.scheme, threads,
                          args.subgroup)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    class Pinned(tuner.TuningPolicy):
        """Resolves every request to the plan the command line names, so
        dispatch's tail serves it like any other (arena, telemetry,
        record) and the record's source reads ``pinned``."""

        def select(self, *problem):
            return plan, "pinned"

    stack = (args.batch,) if args.batch else ()
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal(stack + (p, q))
    B = rng.standard_normal(stack + (q, r))
    C = np.empty(stack + (p, r))
    cache = tuner.PlanCache(args.cache)
    auto = args.auto or args.explain or args.guard or bool(args.batch)
    policy = "never" if auto else Pinned()
    serve = tuner.matmul_batched if args.batch else tuner.matmul
    fast = lambda: serve(  # noqa: E731
        A, B, threads=threads, cache=cache, out=C, tune=policy,
        guard=True if args.guard else None)
    # every call leaves its dispatch record: what the command prints about
    # the plan that ran is that record, never a second lookup
    obs.enable()
    per = args.batch or 1
    print(f"== {p}x{q}x{r}{f' x batch {per}' if args.batch else ''} "
          f"float64, {threads} thread(s), guard "
          f"{'on' if args.guard else 'off'} ==", file=out)
    if args.explain:
        # the decision trace of one call: the cost-ranked shortlist, with
        # the served plan's prediction beside its measurement (ranked
        # first, so that a fresh calibration is not charged to the call)
        tuner.enumerate_plans(p, q, r, threads=threads)
        fast()
        rec = obs.dispatch_records()[-1]
        print("cost-ranked shortlist (seconds model, this machine's "
              "calibration):", file=out)
        _print_shortlist(p, q, r, "float64", threads, 8, out, rec)
    else:
        with blas.blas_threads(threads):
            t_blas = median_time(lambda: np.matmul(A, B), trials=args.trials)
        t_fast = median_time(fast, trials=args.trials)
        rec = obs.dispatch_records()[-1]
        ref = np.matmul(A, B)
        err = float(np.linalg.norm(C - ref) / np.linalg.norm(ref))
        label = f"{rec['plan']} [{rec['source']}]"
        print(f"median of {args.trials} trial(s):", file=out)
        print(f"{'vendor BLAS':>40}: {t_blas:8.4f}s "
              f"{effective_gflops(p, q, r, t_blas / per):8.2f} eff.GFLOPS",
              file=out)
        print(f"{label:>40}: {t_fast:8.4f}s "
              f"{effective_gflops(p, q, r, t_fast / per):8.2f} eff.GFLOPS "
              f"(speedup {t_blas / t_fast:5.2f}x, rel.err {err:.1e})",
              file=out)
    if rec["scheme"] == "sequential" and not rec["plan"].startswith("dgemm"):
        # a rule on the operands, not a plan field (a parallel schedule's
        # own choice is the chains label of its span in the summary)
        fused = chains_fused(A.dtype, B.dtype)
        print("chains: " + ("compiled kernels" if fused
                            else "interpreter"), file=out)
    if args.explain:
        print(obs.render_summary(obs.summarize()), file=out)
        quarantined = cache.quarantined_keys()
        if quarantined:
            print(f"quarantined plan keys: {', '.join(quarantined)}",
                  file=out)
        return 0
    print("last call: " + obs.render_record(rec), file=out)
    if auto:
        path = obs.save_snapshot()
        if path is not None:
            print(f"telemetry snapshot: {path} (inspect with "
                  f"`python -m repro stats`)", file=out)
    return 0


def _print_shortlist(p: int, q: int, r: int, dtype: str, threads: int,
                     n: int, out, rec: dict | None = None) -> None:
    """The cost model's shortlist of ``n`` plans for a shape, each at its
    rank in the whole space with its predicted seconds; given a dispatch
    record, also the plan it served (found by its plan text, wherever it
    ranks) with the prediction beside the measurement."""
    from repro import tuner
    from repro.algorithms import get_algorithm
    from repro.bench.metrics import effective_gflops
    from repro.core.cost import plan_cost

    shortlist = tuner.enumerate_plans(p, q, r, threads=threads, dtype=dtype,
                                      max_candidates=n)
    ranked = tuner.enumerate_plans(p, q, r, threads=threads, dtype=dtype)
    for i, pl in enumerate(ranked, 1):
        served = rec is not None and pl.describe() == rec["plan"]
        if not (served or pl in shortlist):
            continue
        alg = None if pl.is_dgemm else get_algorithm(pl.algorithm)
        sec = plan_cost(alg, p, q, r, pl.steps, scheme=pl.scheme,
                        threads=pl.threads, subgroup=pl.subgroup, dtype=dtype)
        print(f"  #{i} {pl.describe():<40} predicted {sec * 1e3:9.3f} ms "
              f"{effective_gflops(p, q, r, sec):8.2f} eff.GFLOPS", file=out)
        if served:
            measured = rec["seconds"] / rec.get("batch", 1)
            print(f"     served, predicted vs measured: {sec * 1e3:.3f} ms "
                  f"vs {measured * 1e3:.3f} ms (x{measured / sec:.2f})",
                  file=out)


def cmd_stats(args, out=sys.stdout) -> int:
    import json
    import os

    from repro import obs

    snap = obs.snapshot()
    origin = "live registry"
    if obs.is_empty(snap):
        # a previous `repro multiply --auto` (another process) saved one
        loaded = obs.load_snapshot(args.snapshot)
        if loaded is not None:
            snap = loaded
            origin = (f"snapshot file "
                      f"{args.snapshot or obs.default_snapshot_path()}")

    if args.format == "json":
        print(json.dumps(snap, indent=2, sort_keys=True), file=out)
    elif args.format == "prom":
        out.write(obs.prometheus_text(snap))
    elif obs.is_empty(snap):
        print("telemetry: no data (enable with REPRO_OBS=1 or run "
              "`repro multiply --auto`)", file=out)
    else:
        print(f"telemetry ({origin})", file=out)
        print(obs.render_summary(obs.summarize(snap)), file=out)

    if args.reset:
        # clear both stores: a surviving snapshot file would silently
        # resurface as stale data on the next `repro stats`
        obs.reset()
        for path in {args.snapshot, obs.default_snapshot_path()} - {None}:
            with contextlib.suppress(OSError):
                os.unlink(path)
    return 0


def _parse_shape(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) == 1:
        parts *= 3
    if len(parts) != 3 or not all(x.isdigit() for x in parts):
        raise argparse.ArgumentTypeError(
            f"bad shape {text!r}: want PxQxR (or a single N)")
    return tuple(int(x) for x in parts)  # type: ignore[return-value]


def cmd_tune(args, out=sys.stdout) -> int:
    from repro import tuner
    from repro.bench import report
    from repro.parallel import available_cores

    threads = args.threads or available_cores()
    cache = tuner.PlanCache(args.cache)

    if args.dry_run:
        for p, q, r in args.shapes:
            print(f"-- {p}x{q}x{r}: ranked candidates "
                  f"({threads} threads, {args.dtype})", file=out)
            _print_shortlist(p, q, r, args.dtype, threads, args.candidates,
                             out)
        return 0

    t0 = time.perf_counter()
    reports = tuner.tune(
        args.shapes, dtype=args.dtype, threads=threads,
        budget_s=args.budget_seconds, trials=args.trials,
        max_candidates=args.candidates, cache=cache, seed=args.seed,
    )
    rows = [row for rep in reports for row in rep.rows()]
    print(f"tuned {len(reports)} shape(s) in {time.perf_counter() - t0:.1f}s "
          f"({args.dtype}, {threads} threads); "
          f"plan cache: {cache.path}", file=out)
    if cache.save_error is not None:
        print(f"warning: cache not persisted ({cache.save_error}); "
              f"ran in-memory", file=out)
    for rep in reports:
        print(f"\n-- {rep.label}", file=out)
        for m in sorted(rep.measurements, key=lambda m: m.seconds):
            mark = "  <-- cached" if m is rep.best else ""
            print(f"  {m.describe()}{mark}", file=out)
    series = report.rows_to_series(
        [row for row in rows
         if "winner" in row.detail or row.algorithm.startswith("dgemm")]
    )
    if len(reports) > 1:
        print("\n" + report.ascii_plot(
            series, title="tuned winners vs dgemm baseline"), file=out)
    if args.csv:
        report.to_csv(rows, args.csv)
        print(f"\nwrote {len(rows)} measurements to {args.csv}", file=out)
    return 0


def cmd_cache(args, out=sys.stdout) -> int:
    import json
    import os

    from repro import tuner
    from repro.bench import machine

    cache = tuner.PlanCache(args.cache)
    if args.action == "invalidate":
        # stale-only by default, so work tuned on this machine survives
        removed = cache.invalidate(stale_only=not args.all)
        if removed and not cache.save():
            print(f"error: could not rewrite {cache.path}: "
                  f"{cache.save_error}", file=sys.stderr)
            return 1
        scope = "entries" if args.all else "stale entries"
        print(f"removed {len(removed)} {scope} from {cache.path} "
              f"({len(cache)} remain)", file=out)
        return 0

    # show and doctor: one pass over the store, one report
    fp = machine.machine_fingerprint()
    current = machine.fingerprint_digest()
    stale = set(cache.stale_keys())
    print(f"plan cache: {cache.path}", file=out)
    print(f"this machine: {current}  "
          f"[cpu: {fp['cpu']}, cores: {fp['cores']}, "
          f"blas: {fp['blas']}, numpy: {fp['numpy']}]", file=out)
    print(f"{len(cache)} entries, {len(stale)} stale", file=out)
    unparsable = []
    for key, ent in cache.items():
        try:
            desc = tuner.Plan.from_dict(ent["plan"]).describe()
        except (KeyError, TypeError, ValueError):
            desc = "?"  # still show the row: this is a diagnosis tool
            unparsable.append(key)
        gf = ent.get("gflops")
        perf = f"{gf:8.2f} eff.GFLOPS" if gf else " " * 17
        # stale rows show the foreign machine digest they carry
        mark = (f"STALE ({ent.get('fingerprint', 'unstamped')})"
                if key in stale else "fresh")
        print(f"  {key:>32} -> {desc:<44} {perf} {mark}", file=out)
    ledger = cache.failure_ledger()
    quarantined = [key for key, rec in ledger.items()
                   if rec.get("quarantined")]
    if ledger:
        print(f"failure ledger: {len(ledger)} key(s), {len(quarantined)} "
              f"quarantined", file=out)
        for key, rec in ledger.items():
            state = ("QUARANTINED" if rec.get("quarantined")
                     else f"{rec.get('count', 0)} failure(s)")
            skips = rec.get("skips", 0)
            backoff = f", {skips} skip(s)" if skips else ""
            print(f"  {key}: {state}{backoff} [{rec.get('reason', '?')}]",
                  file=out)
    # the calibrations the cost model runs on are never a problem in
    # themselves; doctor --fix removes them so the next lookup re-measures
    for path in sorted(machine.cache_root().glob("calibration-*.json")):
        origin = ("current" if path.name.split("-")[1] == current
                  else "foreign")
        try:
            cal = machine.Calibration.from_dict(json.loads(path.read_text()))
            what = (f"{cal.dtype} {cal.threads}t: peak gemm "
                    f"{cal.gemm.peak:.1f} GFLOPS, add {cal.add_gbs:.1f} GB/s")
        except (OSError, ValueError, KeyError, TypeError):
            what = "unreadable"
        print(f"  [calibration] {path.name} ({origin} fingerprint) {what}",
              file=out)
    # a sidecar left by an earlier process is as actionable as this one's
    sidecar = cache.corrupt_sidecar
    leftover = cache.path.with_name(cache.path.name + ".corrupt")
    if sidecar is None and leftover.exists():
        sidecar = leftover
    problems = [text for found, text in (
        (cache.load_error is not None,
         f"[corrupt] cache file could not be loaded: {cache.load_error}"),
        (sidecar is not None, f"[corrupt-sidecar] original preserved at "
                              f"{sidecar}"),
        (stale, f"[stale-fingerprint] {len(stale)} entrie(s) tuned under "
                f"another machine fingerprint"),
        (unparsable, f"[unparsable] {len(unparsable)} entrie(s) whose plan "
                     f"no longer parses: {', '.join(unparsable)}"),
        (quarantined, f"[quarantined] {len(quarantined)} plan key(s) in the "
                      f"failure ledger: {', '.join(quarantined)}"),
    ) if found]
    for problem in problems:
        print(f"  {problem}", file=out)
    if args.action == "show":
        return 0

    # doctor: exit 1 while a problem remains; --fix drops what cannot be
    # used and keeps what can
    if args.fix and (forgotten := machine.forget_calibrations()):
        print(f"  fixed: removed {forgotten} calibration file(s); the next "
              f"lookup re-measures", file=out)
    if not problems:
        print(f"  healthy: {len(cache)} entrie(s), no quarantined plans, "
              f"no corruption", file=out)
        return 0
    if not args.fix:
        print(f"{len(problems)} problem(s); rerun with --fix to repair",
              file=out)
        return 1
    for key in unparsable:
        cache.drop(key)
    removed = cache.invalidate(stale_only=True)
    cleared = cache.clear_failures()
    if not cache.save():
        print(f"error: could not rewrite {cache.path}: "
              f"{cache.save_error}", file=sys.stderr)
        return 1
    if sidecar is not None:
        with contextlib.suppress(OSError):
            os.unlink(sidecar)
    print(f"fixed: dropped {len(unparsable)} unparsable + {len(removed)} "
          f"stale entrie(s), cleared {cleared} ledger key(s), rewrote "
          f"{cache.path}", file=out)
    return 0


def cmd_codegen(args, out=sys.stdout) -> int:
    from repro.algorithms import get_algorithm
    from repro.codegen import cbackend

    alg = get_algorithm(args.algorithm)
    print(f"{alg.name}, cse={args.cse}: the descriptor the C library"
          f" runs it from", file=out)
    print(cbackend.descriptor(alg, cse=args.cse).render(), file=out)
    return 0


def cmd_analyze(args, out=sys.stdout) -> int:
    import json as _json

    from repro import analyze

    selected = args.analyzers or []
    if args.run_all or not selected:
        selected = list(analyze.ANALYZERS)
    kwargs = {}
    if args.algorithms:
        kwargs["names"] = args.algorithms
    total_checked = 0
    all_findings = []
    for name in selected:
        checked, findings = analyze.run(
            name, **(kwargs if name == "cemit" else {}))
        total_checked += checked
        all_findings.extend(findings)
        if not args.json:
            status = "clean" if not findings else f"{len(findings)} finding(s)"
            print(f"{name:>12}: {checked} checked, {status}", file=out)
    if args.json:
        print(_json.dumps({
            "analyzers": selected,
            "checked": total_checked,
            "findings": [f.to_dict() for f in all_findings],
        }, indent=2), file=out)
    else:
        for f in all_findings:
            print(f"  {f}", file=out)
        verdict = "clean" if not all_findings else "FINDINGS"
        print(f"{total_checked} checked across {len(selected)} analyzer(s): "
              f"{verdict}", file=out)
    return 1 if all_findings else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "search":
        # forward verbatim: the driver owns its own argparse (REMAINDER
        # would otherwise swallow/reject the driver's flags)
        from repro.search import driver

        return driver.main(argv[1:])
    args = _build_parser().parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except BrokenPipeError:
        # output truncated by a downstream pipe (e.g. `| head`): not an error
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
