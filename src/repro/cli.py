"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands map onto the library's main entry points:

- ``list``      — the algorithm catalog as a Table-2-style summary;
- ``verify``    — exactness/residual check of catalog entries;
- ``multiply``  — time one fast multiply against the vendor BLAS and
  report effective GFLOPS (Eq. 3), sequential or parallel, optionally
  through the native C chain backend; ``--auto`` lets the tuner's plan
  cache / cost model pick the algorithm instead;
- ``tune``      — sweep candidate plans for a set of shapes under a time
  budget and persist the winners to the plan cache (``repro.tuner``);
  with ``--threads > 1`` the candidate space spans the parallel schemes
  and the hybrid-subgroup P' divisors;
- ``cache``     — inspect (``show``), invalidate (``invalidate``), or
  health-check (``doctor``) the plan cache; entries tuned under another
  machine fingerprint are shown as stale (with scheme/P' columns for
  parallel plans) and are the default target of invalidation; ``doctor`` additionally reports quarantined plans (the
  ``repro.guard`` failure ledger), unparsable entries, corrupt-file
  sidecars, and load errors, lists the machine calibrations the cost
  model runs on, and ``doctor --fix`` repairs what it can (and removes
  the calibrations, so the next lookup measures again);
- ``codegen``   — print the generated Python (or C) source for an
  algorithm/strategy/CSE combination;
- ``search``    — run the §2.3 ALS search (delegates to
  ``repro.search.driver``);
- ``stats``     — report the unified telemetry registry (``repro.obs``):
  dispatch plan sources, cache hit ratio, arena health, per-scheme span
  totals; ``--format json|prom`` for machines, ``--reset`` to clear.
  Reads the live in-process registry when it has data, else the snapshot
  file a ``repro multiply --auto`` run saved.

Each subcommand is also importable as a function for tests
(``cmd_list``, ``cmd_verify``, ...); they return process exit codes.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("multiply", help="time a fast multiply vs BLAS")
    p.add_argument("--algorithm", "-a", default="strassen")
    p.add_argument("--shape", nargs=3, type=int, metavar=("P", "Q", "R"),
                   default=None, help="problem shape (default: square --size)")
    p.add_argument("--size", "-n", type=int, default=1024)
    p.add_argument("--steps", "-s", type=int, default=1)
    p.add_argument("--trials", type=int, default=5, help="median-of-k trials")
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--scheme", default="hybrid",
                   choices=["dfs", "bfs", "hybrid", "hybrid-subgroup"])
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--subgroup", type=int, default=None,
                   help="P' of the hybrid-subgroup scheme (must divide the "
                        "thread count; default: threads // 2)")
    p.add_argument("--native", action="store_true",
                   help="use the compiled C chain backend")
    p.add_argument("--blas-threads", type=int, default=None,
                   help="pin the vendor BLAS thread count for both sides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--auto", action="store_true",
                   help="let the tuner pick the plan (ignores --algorithm); "
                        "runs with telemetry on and saves an obs snapshot "
                        "for a later `repro stats`")
    p.add_argument("--explain", action="store_true",
                   help="print the full dispatch decision trace (ranked "
                        "shortlist, chosen plan + source, arena footprint) "
                        "for one call; implies --auto")
    p.add_argument("--cache", default=None,
                   help="plan-cache file for --auto (default: "
                        "$REPRO_PLAN_CACHE or ~/.cache/repro)")
    p.add_argument("--batch", type=int, default=None, metavar="N",
                   help="multiply a batch of N same-shape products through "
                        "repro.matmul_batched (the per-call plan, resolved "
                        "once, for every element) and compare against the "
                        "stacked vendor BLAS; with --explain, also runs "
                        "one observed batch")
    p.add_argument("--guard", action="store_true",
                   help="run through the repro.guard fallback chain "
                        "(tuned plan -> cost-model plan -> classical "
                        "BLAS); with --explain, also prints the guard "
                        "counters the call left behind")

    p = sub.add_parser("tune", help="tune plans for a set of shapes and "
                                    "persist them to the plan cache")
    p.add_argument("--shapes", nargs="+", metavar="PxQxR",
                   default=["1024x1024x1024", "1024x416x1024", "2048x416x416"],
                   help="problem shapes, e.g. 1536x1536x1536 (default: one "
                        "per paper regime: square, outer product, "
                        "tall-skinny)")
    p.add_argument("--threads", type=int, default=None,
                   help="thread count to tune for (default: all cores, "
                        "matching repro.matmul's dispatch default)")
    p.add_argument("--dtype", default="float64",
                   choices=["float32", "float64"])
    p.add_argument("--budget-seconds", type=float, default=30.0,
                   help="wall-clock budget per shape")
    p.add_argument("--trials", type=int, default=3, help="median-of-k trials")
    p.add_argument("--candidates", type=int, default=8,
                   help="size of the measured shortlist per shape")
    p.add_argument("--cache", default=None,
                   help="plan-cache file (default: $REPRO_PLAN_CACHE or "
                        "~/.cache/repro/plan_cache.json)")
    p.add_argument("--csv", default=None,
                   help="also export the measurements as CSV")
    p.add_argument("--dry-run", action="store_true",
                   help="list the ranked candidate plans without timing")
    p.add_argument("--seed", type=int, default=0,
                   help="operand-generation seed (tunes are reproducible "
                        "given the same seed)")

    p = sub.add_parser("cache", help="inspect, invalidate, or health-check "
                                     "the plan cache")
    p.add_argument("action", choices=["show", "invalidate", "doctor"])
    p.add_argument("--cache", default=None,
                   help="plan-cache file (default: $REPRO_PLAN_CACHE or "
                        "~/.cache/repro/plan_cache.json)")
    p.add_argument("--all", action="store_true",
                   help="invalidate every entry, not just fingerprint-stale "
                        "ones")
    p.add_argument("--fix", action="store_true",
                   help="with doctor: drop unparsable entries, invalidate "
                        "stale ones, clear the failure ledger, remove the "
                        ".corrupt sidecar and the machine calibrations, and "
                        "rewrite the cache file")

    p = sub.add_parser("codegen", help="print generated source")
    p.add_argument("--algorithm", "-a", default="strassen")
    p.add_argument("--strategy", default="write_once",
                   choices=["pairwise", "write_once", "streaming"])
    p.add_argument("--cse", action="store_true")
    p.add_argument("--c", dest="c_source", action="store_true",
                   help="emit the native C chains instead of Python")

    p = sub.add_parser("search", help="ALS search for a new algorithm "
                                      "(see repro.search.driver)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments forwarded to repro.search.driver")

    p = sub.add_parser("analyze", help="static analysis: symbolic kernel "
                                       "verification, arena-discipline and "
                                       "concurrency lint, catalog validation")
    p.add_argument("--all", dest="run_all", action="store_true",
                   help="run every analyzer (default when none is selected)")
    for name, text in (
            ("symbolic", "prove every generated kernel computes its scheme"),
            ("cemit", "prove the emitted C chain kernels compute their "
                      "scheme (no compiler needed)"),
            ("arena", "mark/release balance of the source tree"),
            ("concurrency", "unlocked shared-state mutation, hot-path "
                            "allocation"),
            ("catalog", "shape/dtype/residual validation of catalog "
                        "entries")):
        p.add_argument(f"--{name}", dest="analyzers", action="append_const",
                       const=name, help=text)
    p.add_argument("--algorithm", "-a", action="append", dest="algorithms",
                   default=None, metavar="NAME",
                   help="restrict symbolic/cemit passes to these catalog "
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
    import repro
    from repro.bench.metrics import effective_gflops, median_time

    if args.subgroup is not None:
        # validate up front: a bad P' must be an argparse-style error, not
        # a traceback from deep inside the hybrid's remainder phase
        if not (args.parallel and args.scheme == "hybrid-subgroup"):
            print("error: --subgroup requires --parallel "
                  "--scheme hybrid-subgroup", file=sys.stderr)
            return 2
        from repro.parallel import available_cores

        threads = args.threads or available_cores()
        if args.subgroup < 1 or threads % args.subgroup:
            print(f"error: --subgroup must be a divisor of the thread "
                  f"count ({threads}), got {args.subgroup}",
                  file=sys.stderr)
            return 2

    if args.guard:
        # guarded execution lives in the dispatch entry point
        args.auto = True
    p, q, r = args.shape if args.shape else (args.size,) * 3
    if args.batch is not None and args.batch < 1:
        print(f"error: --batch must be >= 1, got {args.batch}",
              file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((p, q))
    B = rng.standard_normal((q, r))

    if args.explain:
        from repro import tuner

        cache = tuner.PlanCache(args.cache) if args.cache else None
        return _explain(args, A, B, p, q, r, cache, out)

    if args.batch:
        return _multiply_batched(args, p, q, r, rng, out)

    if args.auto:
        from repro import obs, tuner

        # --auto runs observed: the dispatch records/counters the run
        # leaves behind are what a follow-up `repro stats` reports
        obs.enable()
        cache = tuner.PlanCache(args.cache) if args.cache else None
        plan, source = tuner.get_plan(
            p, q, r, dtype=np.result_type(A, B).name,
            threads=args.threads, cache=cache,
        )
        # dispatch through the real entry point (plan lookup, arena, pool
        # and telemetry all included), so the printed numbers describe
        # what repro.matmul actually does for this shape
        fast = lambda: tuner.matmul(  # noqa: E731
            A, B, threads=args.threads, cache=cache,
            guard=True if args.guard else None)
        label = (f"auto: {plan.describe()} [{source}]"
                 + (" +guard" if args.guard else ""))
    elif args.native:
        from repro.codegen import cbackend

        cc = cbackend.compile_chains(args.algorithm)
        fast = lambda: cc.multiply(A, B, steps=args.steps)  # noqa: E731
        label = f"{args.algorithm} (native chains)"
    elif args.parallel:
        fast = lambda: repro.multiply(  # noqa: E731
            A, B, algorithm=args.algorithm, steps=args.steps,
            parallel=True, scheme=args.scheme, threads=args.threads,
            subgroup=args.subgroup)
        label = f"{args.algorithm} ({args.scheme})"
    else:
        fast = lambda: repro.multiply(  # noqa: E731
            A, B, algorithm=args.algorithm, steps=args.steps)
        label = args.algorithm

    if args.blas_threads is not None:
        from repro.parallel import blas

        with blas.blas_threads(args.blas_threads):
            t_blas = median_time(lambda: A @ B, trials=args.trials)
            t_fast = median_time(fast, trials=args.trials)
    else:
        t_blas = median_time(lambda: A @ B, trials=args.trials)
        t_fast = median_time(fast, trials=args.trials)
    C = fast()
    err = float(np.linalg.norm(C - A @ B) / np.linalg.norm(A @ B))
    print(f"shape {p}x{q}x{r}, steps={args.steps}", file=out)
    print(f"{'vendor BLAS':>24}: {t_blas:8.4f}s "
          f"{effective_gflops(p, q, r, t_blas):8.2f} eff.GFLOPS", file=out)
    print(f"{label:>24}: {t_fast:8.4f}s "
          f"{effective_gflops(p, q, r, t_fast):8.2f} eff.GFLOPS "
          f"(speedup {t_blas / t_fast:5.2f}x, rel.err {err:.1e})", file=out)
    if args.auto:
        from repro import obs

        path = obs.save_snapshot()
        if path is not None:
            print(f"telemetry snapshot: {path} (inspect with "
                  f"`python -m repro stats`)", file=out)
    return 0


def _multiply_batched(args, p: int, q: int, r: int, rng, out) -> int:
    """``repro multiply --batch N``: one amortized batched call vs the
    stacked vendor BLAS (per-batch and per-element numbers)."""
    from repro import tuner
    from repro.bench.metrics import effective_gflops, median_time

    batch = args.batch
    cache = tuner.PlanCache(args.cache) if args.cache else None
    A = rng.standard_normal((batch, p, q))
    B = rng.standard_normal((batch, q, r))
    bplan, source = tuner.get_batch_plan(
        p, q, r, batch, dtype=np.result_type(A, B).name,
        threads=args.threads, cache=cache,
    )
    C = np.empty((batch, p, r), dtype=np.result_type(A, B))
    fast = lambda: tuner.matmul_batched(  # noqa: E731
        A, B, out=C, threads=args.threads, cache=cache,
        guard=True if args.guard else None)
    t_blas = median_time(lambda: np.matmul(A, B), trials=args.trials)
    t_fast = median_time(fast, trials=args.trials)
    fast()
    ref = np.matmul(A, B)
    err = float(np.linalg.norm(C - ref) / np.linalg.norm(ref))
    label = f"batched: {bplan.describe()} [{source}]"
    print(f"shape {p}x{q}x{r} x batch {batch}", file=out)
    print(f"{'stacked vendor BLAS':>40}: {t_blas:8.4f}s "
          f"{effective_gflops(p, q, r, t_blas / batch):8.2f} eff.GFLOPS/elem",
          file=out)
    print(f"{label:>40}: {t_fast:8.4f}s "
          f"{effective_gflops(p, q, r, t_fast / batch):8.2f} eff.GFLOPS/elem "
          f"(speedup {t_blas / t_fast:5.2f}x, rel.err {err:.1e})", file=out)
    return 0


def _explain(args, A, B, p: int, q: int, r: int, cache, out) -> int:
    """``repro multiply --explain``: the full decision trace of one call.

    Everything dispatch decides silently, spelled out: the cost-ranked
    candidate shortlist with predicted times, the resolved plan and where
    it came from (trivial / cache / nearest / model), the arena that will
    serve it, then one observed call with its dispatch record (prediction
    beside measurement) and span timings.
    """
    from repro import obs, tuner
    from repro.algorithms import get_algorithm
    from repro.bench.metrics import effective_gflops
    from repro.codegen.cbackend import chains_fused
    from repro.core.cost import plan_cost
    from repro.parallel import available_cores

    obs.enable()
    threads = args.threads or available_cores()
    dtype = np.result_type(A, B).name
    print(f"== decision trace: {p}x{q}x{r} {dtype}, {threads} threads ==",
          file=out)

    def predicted(pl) -> float:
        alg = None if pl.is_dgemm else get_algorithm(pl.algorithm)
        return plan_cost(alg, p, q, r, pl.steps, scheme=pl.scheme,
                         threads=pl.threads, subgroup=pl.subgroup,
                         dtype=dtype)

    plans = tuner.enumerate_plans(p, q, r, threads=threads, dtype=dtype,
                                  max_candidates=8)
    print("cost-ranked shortlist (seconds model, this machine's "
          "calibration):", file=out)
    for i, pl in enumerate(plans, 1):
        sec = predicted(pl)
        print(f"  #{i} {pl.describe():<40} predicted {sec * 1e3:9.3f} ms "
              f"{effective_gflops(p, q, r, sec):8.2f} eff.GFLOPS", file=out)

    plan, source = tuner.get_plan(p, q, r, dtype=dtype, threads=threads,
                                  cache=cache)
    print(f"chosen plan: {plan.describe()}  [source: {source}]", file=out)
    if not plan.is_dgemm:
        print("chains: " + ("compiled kernels" if chains_fused(A.dtype, B.dtype)
                            else "NumPy executors"), file=out)
    ws = tuner.workspace_for(plan, p, q, r, A.dtype, B.dtype)
    if ws is None:
        print("arena footprint: none (plain BLAS needs no workspace)",
              file=out)
    else:
        print(f"arena footprint: {ws.nbytes:,} bytes", file=out)

    C = tuner.matmul(A, B, threads=threads, cache=cache,
                     guard=True if args.guard else None)
    err = float(np.linalg.norm(C - A @ B) / np.linalg.norm(A @ B))
    records = obs.dispatch_records()
    if records:
        rec = records[-1]
        # which kernels formed a parallel scheme's chains is the
        # schedule's own per-call decision; its span says which
        chains = "".join(
            f", chains {row['labels']['chains']}"
            for row in obs.snapshot()["spans"]
            if row["name"] == f"parallel.{rec['scheme']}")
        print(f"observed call: {rec['seconds']:.4f}s "
              f"{rec['gflops']:.2f} eff.GFLOPS "
              f"(scheme {rec['scheme']}{chains}, rel.err {err:.1e})",
              file=out)
        if rec["plan"] == plan.describe():
            sec = predicted(plan)
            print(f"predicted vs measured: {sec * 1e3:.3f} ms vs "
                  f"{rec['seconds'] * 1e3:.3f} ms "
                  f"(x{rec['seconds'] / sec:.2f})", file=out)
        if "arena_high_water" in rec:
            print(f"arena high water: {rec['arena_high_water']:,} bytes, "
                  f"overflows: {rec['arena_overflows']}", file=out)
    for row in obs.snapshot()["spans"]:
        if row["name"].startswith(("dispatch.", "parallel.")):
            print(f"  span {row['name']:<28} x{row['count']:<3} "
                  f"total {row['total_s']:.4f}s", file=out)

    guard = obs.summarize()["guard"]
    if args.guard or any(
            v for v in guard.values() if not isinstance(v, dict)) or any(
            guard["fallbacks"].values()) or any(
            guard["faults_fired"].values()):
        mode = "on" if args.guard else "off (counters from prior faults)"
        print(f"guard: {mode}", file=out)
        fb = guard["fallbacks"]
        fb_txt = ("  ".join(f"{k}={v}" for k, v in sorted(fb.items()))
                  or "none")
        print(f"  fallbacks: {fb_txt}", file=out)
        print(f"  plan failures: {guard['plan_failures']}  "
              f"quarantines: {guard['quarantines']}  "
              f"skips: {guard['quarantine_skips']}  "
              f"rehabilitations: {guard['rehabilitations']}", file=out)
        print(f"  numeric violations: {guard['numeric_violations']}  "
              f"watchdog timeouts: {guard['watchdog_timeouts']}  "
              f"pool rebuilds: {guard['pool_rebuilds']}", file=out)
        if guard["faults_fired"]:
            fired = "  ".join(f"{k}={v}" for k, v
                              in sorted(guard["faults_fired"].items()))
            print(f"  injected faults fired: {fired}", file=out)
        quarantined = cache.quarantined_keys() if cache is not None else []
        if quarantined:
            print(f"  quarantined plan keys: "
                  f"{', '.join(quarantined)}", file=out)

    if args.batch:
        batch = args.batch
        print(f"== batch decision: {batch} x {p}x{q}x{r} {dtype}, "
              f"{threads} threads ==", file=out)
        bplan, bsource = tuner.get_batch_plan(p, q, r, batch, dtype=dtype,
                                              threads=threads, cache=cache)
        print(f"chosen batch plan: {bplan.describe()}  "
              f"[source: {bsource}]", file=out)
        print(f"amortized: one plan lookup + one arena + one worker pool "
              f"serve all {batch} elements", file=out)
        As = np.stack([A] * batch)
        Bs = np.stack([B] * batch)
        tuner.matmul_batched(As, Bs, threads=threads, cache=cache)
        for row in obs.snapshot()["spans"]:
            if row["name"] == "dispatch.batch":
                print(f"  span {row['name']:<28} x{row['count']:<3} "
                      f"total {row['total_s']:.4f}s", file=out)
    return 0


def cmd_stats(args, out=sys.stdout) -> int:
    import json

    from repro import obs

    snap = obs.snapshot()
    live = not obs.is_empty(snap)
    origin = "live registry"
    snap_path = None
    if not live:
        # a previous `repro multiply --auto` (another process) saved one
        loaded = obs.load_snapshot(args.snapshot)
        if loaded is not None:
            snap = loaded
            snap_path = (args.snapshot if args.snapshot
                         else obs.default_snapshot_path())
            origin = f"snapshot file {snap_path}"

    if args.format == "json":
        json.dump(snap, out, indent=2, sort_keys=True)
        print(file=out)
    elif args.format == "prom":
        out.write(obs.prometheus_text(snap))
    else:
        _render_stats(snap, origin, out)

    if args.reset:
        # clear both stores: a surviving snapshot file would silently
        # resurface as stale data on the next `repro stats`
        obs.reset()
        for path in (args.snapshot, obs.default_snapshot_path()):
            if path is not None:
                try:
                    import os

                    os.unlink(path)
                except OSError:
                    pass
    return 0


def _render_stats(snap: dict, origin: str, out) -> None:
    from repro import obs

    summary = obs.summarize(snap)
    if obs.is_empty(snap):
        print("telemetry: no data (enable with REPRO_OBS=1 or run "
              "`repro multiply --auto`)", file=out)
        return
    print(f"telemetry ({origin})", file=out)
    print(f"dispatch: {summary['calls']} call(s)", file=out)
    if summary["sources"]:
        mix = "  ".join(f"{src}={n}" for src, n
                        in sorted(summary["sources"].items()))
        ratio = summary["cache_hit_ratio"]
        hit = f"{ratio:.0%}" if ratio is not None else "n/a"
        print(f"  plan sources: {mix}  (cache hit ratio: {hit})", file=out)
    ws = summary["workspace"]
    tail = f"overflows {ws['overflows']}, grows {ws['grows']}"
    if ws["arena_bytes"] is not None:
        print(f"workspace: arena {int(ws['arena_bytes']):,} bytes, "
              f"high water {int(ws['high_water'] or 0):,}, {tail}", file=out)
    else:
        print(f"workspace: {tail}", file=out)
    guard = summary.get("guard", {})
    if guard and (any(v for v in guard.values() if not isinstance(v, dict))
                  or any(guard.get("fallbacks", {}).values())
                  or any(guard.get("faults_fired", {}).values())):
        fb = "  ".join(f"{k}={v}" for k, v
                       in sorted(guard["fallbacks"].items())) or "none"
        print(f"guard: fallbacks {fb}", file=out)
        print(f"  plan failures {guard['plan_failures']}, "
              f"quarantines {guard['quarantines']}, "
              f"skips {guard['quarantine_skips']}, "
              f"rehabilitations {guard['rehabilitations']}", file=out)
        print(f"  numeric violations {guard['numeric_violations']}, "
              f"watchdog timeouts {guard['watchdog_timeouts']}, "
              f"pool rebuilds {guard['pool_rebuilds']}, "
              f"task retries {guard['task_retries']}", file=out)
        if guard["cache_load_errors"] or guard["cache_save_errors"]:
            print(f"  cache load errors {guard['cache_load_errors']}, "
                  f"save errors {guard['cache_save_errors']}", file=out)
        if guard["faults_fired"]:
            fired = "  ".join(f"{k}={v}" for k, v
                              in sorted(guard["faults_fired"].items()))
            print(f"  injected faults fired: {fired}", file=out)
    if summary["span_totals"]:
        print("span totals (by total time):", file=out)
        for row in summary["span_totals"][:12]:
            labels = "".join(f" {k}={v}" for k, v
                             in sorted(row["labels"].items()))
            print(f"  {row['name']:<28}{labels} x{row['count']:<4} "
                  f"total {row['total_s']:.4f}s", file=out)
    if summary["records"]:
        rec = summary["records"][-1]
        batch = f" x batch {rec['batch']}" if "batch" in rec else ""
        print(f"last dispatch: {rec['shape'][0]}x{rec['shape'][1]}"
              f"x{rec['shape'][2]} {rec['dtype']}{batch} -> {rec['plan']} "
              f"[{rec['source']}] {rec['seconds']:.4f}s", file=out)


def _parse_shape(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError(f"bad shape {text!r}: want PxQxR (or a single N)")
    return tuple(int(x) for x in parts)  # type: ignore[return-value]


def cmd_tune(args, out=sys.stdout) -> int:
    from repro import tuner
    from repro.bench import report

    from repro.parallel import available_cores

    try:
        shapes = [_parse_shape(s) for s in args.shapes]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    threads = args.threads or available_cores()
    cache = tuner.PlanCache(args.cache) if args.cache else tuner.PlanCache()

    if args.dry_run:
        for p, q, r in shapes:
            print(f"-- {p}x{q}x{r}: ranked candidates "
                  f"({threads} threads, {args.dtype})", file=out)
            for pl in tuner.enumerate_plans(p, q, r, threads=threads,
                                            dtype=args.dtype,
                                            max_candidates=args.candidates):
                print(f"   {pl.describe()}", file=out)
        return 0

    t0 = time.perf_counter()
    reports = tuner.tune(
        shapes, dtype=args.dtype, threads=threads,
        budget_s=args.budget_seconds, trials=args.trials,
        max_candidates=args.candidates, cache=cache, seed=args.seed,
    )
    rows = [row for rep in reports for row in rep.rows()]

    # ---- human-readable tuning report (bench.report rendering) ----
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
    from repro import tuner
    from repro.bench.machine import fingerprint_digest, machine_fingerprint

    cache = tuner.PlanCache(args.cache) if args.cache else tuner.PlanCache()
    if args.action == "show":
        fp = machine_fingerprint()
        print(f"plan cache: {cache.path}", file=out)
        print(f"this machine: {fingerprint_digest()}  "
              f"[cpu: {fp['cpu']}, cores: {fp['cores']}, "
              f"blas: {fp['blas']}, numpy: {fp['numpy']}]", file=out)
        stale = set(cache.stale_keys())
        print(f"{len(cache)} entries, {len(stale)} stale", file=out)
        for key, ent in cache.items():
            try:
                desc = tuner.Plan.from_dict(ent["plan"]).describe()
            except (KeyError, TypeError, ValueError):
                desc = "?"  # still show the row: this is a diagnosis tool
            gf = ent.get("gflops")
            perf = f"{gf:8.2f} eff.GFLOPS" if gf else " " * 17
            # entries carry the parallel configuration as explicit
            # fields; hybrid-subgroup rows always show P' -- 'auto' when
            # the plan defers to the execution-time default
            scheme = ent.get("scheme")
            cfg = ""
            if scheme and scheme != "sequential":
                cfg = f" [{scheme}]"
                if scheme == "hybrid-subgroup":
                    sub = ent.get("subgroup")
                    cfg = f" [{scheme} P'={sub if sub else 'auto'}]"
            # stale rows show the foreign machine digest they carry
            mark = ("fresh" if key not in stale
                    else f"STALE ({ent.get('fingerprint', 'unstamped')})")
            print(f"  {key:>32} -> {desc:<36} {perf} {mark}{cfg}", file=out)
        ledger = cache.failure_ledger()
        if ledger:
            quarantined = cache.quarantined_keys()
            print(f"failure ledger: {len(ledger)} key(s), "
                  f"{len(quarantined)} quarantined", file=out)
            for key, rec in ledger.items():
                state = ("QUARANTINED" if rec.get("quarantined")
                         else f"{rec.get('count', 0)} failure(s)")
                skips = rec.get("skips", 0)
                backoff = f", {skips} skip(s)" if skips else ""
                print(f"  {key}: {state}{backoff} "
                      f"[{rec.get('reason', '?')}]", file=out)
        if cache.load_error is not None:
            print(f"load error: {cache.load_error}", file=out)
        if cache.corrupt_sidecar is not None:
            print(f"corrupt original preserved at: {cache.corrupt_sidecar}",
                  file=out)
        return 0
    if args.action == "doctor":
        return _cache_doctor(args, cache, out)
    # invalidate: stale-only by default, so work tuned on this machine
    # survives the sweep
    removed = cache.invalidate(stale_only=not getattr(args, "all", False))
    if removed and not cache.save():
        print(f"error: could not rewrite {cache.path}: {cache.save_error}",
              file=sys.stderr)
        return 1
    scope = "entries" if getattr(args, "all", False) else "stale entries"
    print(f"removed {len(removed)} {scope} from {cache.path} "
          f"({len(cache)} remain)", file=out)
    return 0


def _cache_doctor(args, cache, out) -> int:
    """``repro cache doctor [--fix]``: one health report per failure mode.

    Diagnoses (and with ``--fix`` repairs): unreadable/corrupt cache
    files (the ``.corrupt`` sidecar the loader left), entries from a
    foreign machine fingerprint, entries whose plan no
    longer parses, and plans the ``repro.guard`` failure ledger has
    quarantined.  Also lists the machine calibrations the cost model runs
    on (``calibration-*.json`` next to the compiled objects); they are
    never a problem in themselves, but ``--fix`` removes them so that the
    next model-stage lookup measures again -- the way out of a noisy
    first calibration.  Exit code 0 when healthy (or fixed), 1 when problems
    remain.
    """
    import os

    from repro import tuner

    print(f"plan cache: {cache.path}", file=out)
    len(cache)  # force the lazy load so load_error/corrupt_sidecar are set
    problems = 0
    if _report_calibrations(out) and args.fix:
        from repro.bench import machine

        print(f"  fixed: removed {machine.forget_calibrations()} "
              f"calibration file(s); the next lookup re-measures", file=out)

    if cache.load_error is not None:
        problems += 1
        print(f"  [corrupt] cache file could not be loaded: "
              f"{cache.load_error}", file=out)
        if cache.corrupt_sidecar is not None:
            print(f"            original preserved at "
                  f"{cache.corrupt_sidecar}", file=out)

    stale_fp = len(cache.stale_keys())
    unparsable = []
    for key, ent in cache.items():
        try:
            tuner.Plan.from_dict(ent["plan"])
        except (KeyError, TypeError, ValueError):
            unparsable.append(key)
    if stale_fp:
        problems += 1
        print(f"  [stale-fingerprint] {stale_fp} entrie(s) tuned under "
              f"another machine fingerprint", file=out)
    if unparsable:
        problems += 1
        print(f"  [unparsable] {len(unparsable)} entrie(s) whose plan "
              f"no longer parses: {', '.join(unparsable)}", file=out)

    quarantined = cache.quarantined_keys()
    if quarantined:
        problems += 1
        ledger = cache.failure_ledger()
        print(f"  [quarantined] {len(quarantined)} plan key(s) in the "
              f"failure ledger:", file=out)
        for key in quarantined:
            rec = ledger[key]
            print(f"      {key} ({rec.get('count', 0)} failure(s): "
                  f"{rec.get('reason', '?')})", file=out)

    sidecar = cache.corrupt_sidecar
    if sidecar is None:
        # a sidecar left by an earlier process is just as actionable
        candidate = cache.path.with_name(cache.path.name + ".corrupt")
        if candidate.exists():
            sidecar = candidate
    if sidecar is not None and cache.load_error is None:
        problems += 1
        print(f"  [corrupt-sidecar] leftover quarantined file: {sidecar}",
              file=out)

    if not problems:
        print(f"  healthy: {len(cache)} entrie(s), no quarantined plans, "
              f"no corruption", file=out)
        return 0
    if not args.fix:
        print(f"{problems} problem(s); rerun with --fix to repair",
              file=out)
        return 1

    # --fix: drop what cannot be used, keep what can
    for key in unparsable:
        cache.drop(key)
    removed = cache.invalidate(stale_only=True)
    cleared = cache.clear_failures()
    if not cache.save():
        print(f"error: could not rewrite {cache.path}: "
              f"{cache.save_error}", file=sys.stderr)
        return 1
    if sidecar is not None:
        try:
            os.unlink(sidecar)
        except OSError:
            pass
    print(f"fixed: dropped {len(unparsable)} unparsable + "
          f"{len(removed)} stale entrie(s), cleared {cleared} ledger "
          f"key(s), rewrote {cache.path}", file=out)
    return 0


def _report_calibrations(out) -> int:
    """List the calibration files under ``machine.cache_root()``; returns
    how many there are."""
    import json

    from repro.bench import machine

    paths = sorted(machine.cache_root().glob("calibration-*.json"))
    current = machine.fingerprint_digest()
    for path in paths:
        digest = path.name.split("-")[1]
        origin = "current" if digest == current else "foreign"
        try:
            cal = machine.Calibration.from_dict(json.loads(path.read_text()))
            what = (f"{cal.dtype} {cal.threads}t: peak gemm "
                    f"{cal.gemm.peak:.1f} GFLOPS, add {cal.add_gbs:.1f} GB/s")
        except (OSError, ValueError, KeyError, TypeError):
            what = "unreadable"
        print(f"  [calibration] {path.name} ({origin} fingerprint) {what}",
              file=out)
    return len(paths)


def cmd_codegen(args, out=sys.stdout) -> int:
    from repro.algorithms import get_algorithm

    alg = get_algorithm(args.algorithm)
    if args.c_source:
        from repro.codegen import cbackend

        print(cbackend.generate_c_source(alg, cse=args.cse), file=out)
    else:
        from repro.codegen import generate_source

        print(generate_source(alg, strategy=args.strategy, cse=args.cse),
              file=out)
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
            name, **(kwargs if name in ("symbolic", "cemit") else {}))
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


def cmd_search(args, out=sys.stdout) -> int:
    from repro.search import driver

    return driver.main(args.rest)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "search":
        # forward verbatim: the driver owns its own argparse (REMAINDER
        # would otherwise swallow/reject the driver's flags)
        from repro.search import driver

        return driver.main(argv[1:])
    args = _build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "verify": cmd_verify,
        "multiply": cmd_multiply,
        "tune": cmd_tune,
        "cache": cmd_cache,
        "codegen": cmd_codegen,
        "analyze": cmd_analyze,
        "search": cmd_search,
        "stats": cmd_stats,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # output truncated by a downstream pipe (e.g. `| head`): not an error
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
