"""Discovering a fast algorithm from scratch (paper Section 2.3).

Run:  python examples/discover_algorithm.py

End-to-end run of the search pipeline on the <2,2,2> tensor at rank 7:
multi-start regularized ALS finds a numerical decomposition, the Prop.-2.3
normalization + rounding step turns it into a discrete exact algorithm,
and the code generator turns *that* into the descriptor the compiled
library runs as a multiply -- i.e. the
full journey from "tensor" to "working Strassen-class algorithm" in one
script.
"""

import numpy as np

from repro.codegen import cbackend, compile_algorithm
from repro.core.algorithm import FastAlgorithm
from repro.search import AlsOptions, search


def main() -> None:
    print("Searching for a rank-7 decomposition of the <2,2,2> tensor")
    print("(Strassen proved rank <= 7; Winograd proved no rank-6 exists)\n")

    outcome = search(
        2, 2, 2, rank=7, starts=40, seed=42,
        options=AlsOptions(max_sweeps=1500),
        verbose=False,
    )
    assert outcome is not None, "search returned nothing"
    print(f"found: rel. residual {outcome.rel_residual:.2e} after "
          f"{outcome.starts_used} start(s); discrete={outcome.discrete}")

    alg = FastAlgorithm(2, 2, 2, outcome.U, outcome.V, outcome.W,
                        name="discovered222", apa=not outcome.exact)
    print(f"exact: {alg.check_exact()}  rank: {alg.rank}  nnz: {alg.nnz()}")

    if outcome.discrete:
        print("\nDiscovered U (discrete entries, a Strassen-equivalent "
              "algorithm up to Prop. 2.3 transforms):")
        print(np.array2string(alg.U, precision=2, suppress_small=True))

    # hand the discovery to the code generator and multiply with it
    f = compile_algorithm(alg)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((200, 200))
    B = rng.standard_normal((200, 200))
    err = np.linalg.norm(f(A, B, steps=2) - A @ B) / np.linalg.norm(A @ B)
    print(f"\ncompiled and ran the discovered algorithm: rel. error {err:.2e}")

    print("\nIts descriptor, the tables the C library runs (first 20 lines):")
    print("\n".join(cbackend.descriptor(alg).render().splitlines()[:20]))

    # rank 6 is impossible (Winograd 1971): show the search plateauing
    print("\nFor contrast, rank 6 (impossible) plateaus far from zero:")
    hopeless = search(2, 2, 2, rank=6, starts=3, seed=0,
                      options=AlsOptions(max_sweeps=400))
    print(f"best rel. residual at rank 6: {hopeless.rel_residual:.3f}")


if __name__ == "__main__":
    main()
