"""Native C chains vs the interpreter's NumPy chains (extends Fig. 2 / §3.2).

The paper's generated C++ fuses every addition chain into one pass over
memory.  The interpreter (:mod:`repro.core.recursion`) forms a chain with
NumPy's in-place ufuncs, one pass per term.  This bench measures what the
fused compiled step buys over it, for the same two algorithm/shape pairs
Fig. 2 uses: ⟨4,2,4⟩ on the outer-product shape and ⟨4,2,3⟩ on squares —
plus Strassen as the reference algorithm.

Expected ordering (write counts per §3.2, constants improved by fusion):
    c-chains <= interpreter      (time per multiply)
with the gap growing with the nnz of the factors, since the chain cost
is pure memory traffic.
"""

import numpy as np
import pytest
from conftest import bench_once

from repro.algorithms import get_algorithm
from repro.bench.metrics import effective_gflops, median_time
from repro.bench.workloads import scaled
from repro.codegen import cbackend
from repro.core import recursion
from repro.parallel import blas

if not cbackend.chains_fused("float64"):
    pytest.skip("no C compiler or vendor cblas for the compiled step",
                allow_module_level=True)

RNG = np.random.default_rng(99)
CASES = [
    # (algorithm, P, Q, R, steps)
    ("strassen", scaled(1536), scaled(1536), scaled(1536), 2),
    ("s424", scaled(1664), scaled(416), scaled(1664), 1),
    ("s423", scaled(1248), scaled(1248), scaled(1248), 1),
]


def _time_variants(name, p, q, r, steps):
    alg = get_algorithm(name)
    A = RNG.standard_normal((p, q))
    B = RNG.standard_normal((q, r))
    cc = cbackend.compile_chains(name)
    cc_cse = cbackend.compile_chains(name, cse=True)
    with blas.blas_threads(1):
        t = {
            "blas": median_time(lambda: A @ B, trials=3),
            "interpreter": median_time(
                lambda: recursion.multiply(A, B, alg, steps=steps), trials=3),
            "c-chains": median_time(lambda: cc(A, B, steps=steps), trials=3),
            "c-chains+cse": median_time(lambda: cc_cse(A, B, steps=steps),
                                        trials=3),
        }
    return t


def test_native_chains_vs_interpreter(benchmark):
    rows = []
    for name, p, q, r, steps in CASES:
        rows.append((name, p, q, r, steps, _time_variants(name, p, q, r, steps)))

    name, p, q, r, steps, _t = rows[0]
    A = RNG.standard_normal((p, q))
    B = RNG.standard_normal((q, r))
    cc = cbackend.compile_chains(name)
    with blas.blas_threads(1):
        bench_once(benchmark, lambda: cc(A, B, steps=steps))

    print("\n== Native C chains vs the interpreter (Fig. 2 extension) ==")
    hdr = f"{'algorithm':>10} {'shape':>16} {'steps':>5}"
    variants = ["blas", "interpreter", "c-chains", "c-chains+cse"]
    print(hdr + "".join(f" {v:>13}" for v in variants) + "   (eff.GFLOPS)")
    ok_order = 0
    for name, p, q, r, steps, t in rows:
        gf = {k: effective_gflops(p, q, r, v) for k, v in t.items()}
        print(f"{name:>10} {f'{p}x{q}x{r}':>16} {steps:>5}"
              + "".join(f" {gf[v]:>13.2f}" for v in variants))
        ok_order += t["c-chains"] <= t["interpreter"] * 1.05
    # fused chains should essentially never lose to the ufunc chains
    assert ok_order >= len(rows) - 1, "fused C chains slower than the "\
        "interpreter on most cases — investigate"
