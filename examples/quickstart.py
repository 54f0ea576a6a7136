"""Quickstart: multiply two matrices with a fast algorithm.

Run:  python examples/quickstart.py

Covers the one-call API, accuracy checking, the effective-GFLOPS metric
(paper Eq. 3), and a peek at the descriptor the compiled library runs.
"""

import numpy as np

import repro
from repro.bench.metrics import median_time

def main() -> None:
    rng = np.random.default_rng(0)
    n = 1024
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))

    # --- one call: Strassen with two recursive steps --------------------
    C = repro.multiply(A, B, algorithm="strassen", steps=2)
    ref = A @ B
    err = np.linalg.norm(C - ref) / np.linalg.norm(ref)
    print(f"Strassen (2 steps) relative error vs numpy: {err:.2e}")

    # --- compare wall time against the vendor gemm ----------------------
    from repro.parallel import blas

    f = repro.compile_algorithm(repro.get_algorithm("strassen"))
    with blas.blas_threads(1):
        t_fast = median_time(lambda: f(A, B, steps=2), trials=3)
        t_gemm = median_time(lambda: A @ B, trials=3)
    print(f"strassen: {t_fast:.3f}s = "
          f"{repro.effective_gflops(n, n, n, t_fast):.1f} effective GFLOPS")
    print(f"dgemm:    {t_gemm:.3f}s = "
          f"{repro.effective_gflops(n, n, n, t_gemm):.1f} GFLOPS")

    # --- any shape works (dynamic peeling handles odd sizes) ------------
    A2 = rng.standard_normal((1001, 773))
    B2 = rng.standard_normal((773, 1237))
    C2 = repro.multiply(A2, B2, algorithm="s424", steps=2)
    err2 = np.linalg.norm(C2 - A2 @ B2) / np.linalg.norm(A2 @ B2)
    print(f"<4,2,4> on 1001x773x1237: relative error {err2:.2e}")

    # --- or let the autotuner decide (repro.tuner) -----------------------
    # `repro tune` (CLI) or tuner.tune() measures candidate plans -- the
    # algorithm x recursion-depth x schedule space of the paper -- and
    # persists winners in a plan cache (default: $REPRO_PLAN_CACHE or
    # ~/.cache/repro/plan_cache.json).  repro.matmul() then dispatches:
    # cache hit -> tuned plan, miss -> nearest tuned shape or cost model.
    from repro import tuner

    # demo: in-memory only (persist=False), so nothing lands in ~/.cache
    cache = tuner.PlanCache("quickstart-demo-plan-cache.json")
    n_t = 384
    tuner.tune([(n_t, n_t, n_t)], threads=1, budget_s=5.0, trials=1,
               cache=cache, persist=False)
    plan, source = tuner.get_plan(n_t, n_t, n_t, threads=1, cache=cache)
    At = rng.standard_normal((n_t, n_t))
    Bt = rng.standard_normal((n_t, n_t))
    Ct = repro.matmul(At, Bt, threads=1, cache=cache)
    err_t = np.linalg.norm(Ct - At @ Bt) / np.linalg.norm(At @ Bt)
    print(f"\nauto-tuned N={n_t}: plan '{plan.describe()}' [{source}], "
          f"relative error {err_t:.2e}")

    # --- the catalog -----------------------------------------------------
    print("\nAlgorithm catalog (Table 2):")
    for e in repro.table2():
        m, k, n_ = e.base_case
        print(f"  {e.name:<14} <{m},{k},{n_}>  rank {e.rank:>3}  "
              f"speedup/step {e.speedup_per_step:>4.0%}  [{e.provenance}]")

    # --- inspect what the compiled library runs -------------------------
    from repro.codegen import cbackend

    desc = cbackend.descriptor(repro.get_algorithm("strassen")).render()
    head = "\n".join(desc.splitlines()[:12])
    print(f"\nFirst lines of Strassen's descriptor (the chains, operands "
          f"and product homes the C library runs it from):\n{head}\n...")


if __name__ == "__main__":
    main()
