#!/usr/bin/env python3
"""The repo's benchmark: warm ``repro.matmul`` against the vendor BLAS.

    python3 benchmarks/e2e/bench_e2e.py run [--workload W] [--seed S]
        [--seconds N] [--trace 0|1] [--out F]
    python3 benchmarks/e2e/bench_e2e.py compare A.json B.json
    python3 benchmarks/e2e/bench_e2e.py ledger OUT.json SET.json [SET.json ...]

``run`` executes each workload in a fresh child process (``child.py``),
prints every metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` per workload -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its layer
metrics with ``--trace 1``.  This process stays small and imports neither
numpy nor repro: the child's peak RSS is one of the metrics.

See README.md next to this file for the workloads, the metrics and the
rule that a change claiming a gain may not touch this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
from hostinfo import isa_flags, ram_bytes, read_llc_bytes  # noqa: E402
from workloads import WORKLOADS, max_threads  # noqa: E402

#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 170

#: variables that would make the child measure something else
_SCRUBBED = ("REPRO_GUARD", "REPRO_FAULTS", "REPRO_OBS", "REPRO_BENCH_SCALE",
             "REPRO_CC", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(private: Path) -> dict[str, str]:
    """The child's environment: this checkout's ``src`` first on the path,
    every cache of the program (and the compiler's temp files) inside
    ``private``, nothing inherited that switches behaviour on."""
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p])
    env["REPRO_PLAN_CACHE"] = str(private / "plans.json")
    env["REPRO_CACHE_DIR"] = str(private / "cache")
    env["XDG_CACHE_HOME"] = str(private / "xdg")
    env["REPRO_OBS_SNAPSHOT"] = str(private / "obs_snapshot.json")
    env["TMPDIR"] = str(private / "tmp")
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in one fresh process; its result dict, or SystemExit."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench_e2e: refused: {ROOT / 'src' / 'repro'} is missing; "
                 f"the benchmark measures the checkout it sits in, never "
                 f"another copy of repro")
    private = WORK / f"{workload}.{os.getpid()}"
    shutil.rmtree(private, ignore_errors=True)
    (private / "tmp").mkdir(parents=True)
    result_file = private / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(private), "--result", str(result_file)]
    try:
        # the child's own prints go to stderr: stdout's last line is ours
        proc = subprocess.Popen(cmd, env=child_env(private), cwd=ROOT,
                                stdout=sys.stderr)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"bench_e2e: {workload} did not finish in "
                     f"{CHILD_TIMEOUT_S} s; killed")
        if code != 0:
            sys.exit(f"bench_e2e: {workload} child exited with code {code}")
        result = json.loads(result_file.read_text())
        trace_file = private / "trace.json"
        if trace_file.is_file():
            shutil.copyfile(trace_file, WORK / f"trace.{workload}.json")
    finally:
        shutil.rmtree(private, ignore_errors=True)
    return result


def print_metrics(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in result["metrics"].items():
        spread = (f"   [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]"
                  if "n" in m else "")
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}{spread}")


def result_line(result: dict, names: list[str]) -> str:
    """The contract's last line: exactly the named metrics, value and unit."""
    metrics = {n: {"value": result["metrics"][n]["value"],
                   "unit": result["metrics"][n]["unit"]} for n in names}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def machine_record(seed: int) -> dict:
    """What the numbers depend on, recorded beside them (from a child, so
    numpy and repro stay out of this process)."""
    code = (
        "import json, numpy, repro.bench.machine as m, repro.parallel.blas as b;"
        "print(json.dumps({'fingerprint': m.machine_fingerprint(),"
        "'digest': m.fingerprint_digest(), 'blas': b.library_name(),"
        "'numpy': numpy.__version__}))")
    private = WORK / f"machine.{os.getpid()}"
    (private / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=child_env(private), capture_output=True,
                             text=True, timeout=60, check=True).stdout
    finally:
        shutil.rmtree(private, ignore_errors=True)
    record = json.loads(out.strip().splitlines()[-1])
    cc = shutil.which("cc") or shutil.which("gcc")
    cc_version = None
    if cc:
        cc_version = subprocess.run([cc, "--version"], capture_output=True,
                                    text=True).stdout.splitlines()[0]
    record.update(isa_flags=isa_flags(), llc_bytes=read_llc_bytes(),
                  ram_bytes=ram_bytes(), nproc=os.cpu_count(),
                  threads_T=max_threads(), compiler=cc_version,
                  python=platform.python_version(), seed=seed)
    return record


def cmd_run(args) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    started = time.time()
    results, lines = {}, []
    for workload in workloads:
        result = run_child(workload, args.seed, seconds, args.trace)
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            sys.exit(f"bench_e2e: {workload} did not report {missing}")
        results[workload] = result
        print_metrics(workload, result)
        for why in result["extra"]["failures"]:
            print(f"FAILED {why}")
        lines.append(result_line(result, names))
    if args.out:
        summary = {"schema": 1, "machine": machine_record(args.seed),
                   "seed": args.seed, "seconds": seconds, "trace": args.trace,
                   "wall_s": time.time() - started, "workloads": results,
                   "claim": None}
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    for line in lines:
        print(line)
    return 0


# ------------------------------------------------------------------ compare
def load_set(path: str) -> dict:
    """A ``run --out`` file, or the last set of a ledger file."""
    data = json.loads(Path(path).read_text())
    return data["sets"][-1] if "sets" in data else data


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """Relative change of B's median with A's as base (positive = worse),
    and ``ok`` / ``worse`` / ``unresolved``.

    ``unresolved``: the change exceeds the bound but the quartile ranges of
    the two runs overlap and either is wider than the bound, so the runs
    cannot tell a regression from their own spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"])
    if change <= bound:
        return change, "ok"
    if "q1" in a and "q1" in b:
        spread = max((m["q3"] - m["q1"]) / abs(m["value"]) for m in (a, b))
        overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
        if spread > bound and overlap:
            return change, "unresolved"
    return change, "worse"


def iqr(v: dict) -> str:
    return (f"[{v['q1']:.4g}, {v['q3']:.4g}]" if "q1" in v
            else "[single value]")


def cmd_compare(args) -> int:
    spec = load_spec()
    a, b = load_set(args.a), load_set(args.b)
    worse = 0
    print(f"{'workload':<14}{'metric':<18}{'A median':>12} {'[q1, q3]':<24}"
          f"{'B median':>12} {'[q1, q3]':<24}{'B vs A':>9}{'bound':>7}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for m in spec["end_to_end"]:
            if m["name"] not in ma or m["name"] not in mb:
                continue        # a traced set carries the layer metrics only
            x, y = ma[m["name"]], mb[m["name"]]
            change, word = verdict(x, y, m["better"], m["bound"])
            worse += word == "worse"
            print(f"{workload:<14}{m['name']:<18}{x['value']:>12.5g} "
                  f"{iqr(x):<24}{y['value']:>12.5g} {iqr(y):<24}"
                  f"{change:>+9.2%}{m['bound']:>7.2f}  {word}")
        for side, res in (("A", a), ("B", b)):
            r = res["workloads"][workload]
            if r["failed"]:
                worse += 1
                print(f"{workload:<14}error_rate: {side} failed "
                      f"{r['failed']} of {r['attempted']}  worse")
    print("relative change is (B - A) / A, signed so that positive is worse")
    return 1 if worse else 0


def cmd_ledger(args) -> int:
    sets = [json.loads(Path(p).read_text()) for p in args.sets]
    ledger = {"schema": 1, "machine": sets[0]["machine"], "sets": sets,
              "claim": None}
    Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run the workloads, print the metrics")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float,
                     help="measuring time per workload "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                     const=1, default=0,
                     help="1: the traced pass, printing the layer metrics")
    run.add_argument("--out", help="write the full JSON result here")
    run.set_defaults(fn=cmd_run)
    cmp_ = sub.add_parser("compare", help="A/B two result files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(fn=cmd_compare)
    led = sub.add_parser("ledger", help="bundle result files into a ledger")
    led.add_argument("out")
    led.add_argument("sets", nargs="+")
    led.set_defaults(fn=cmd_ledger)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
