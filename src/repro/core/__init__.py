"""Core representation of fast matrix-multiplication algorithms.

The paper's framework (Section 2) is reproduced here:

- ``tensor``      -- the matmul tensor ``T_{<M,K,N>}`` and tensor algebra
- ``algorithm``   -- ``FastAlgorithm`` = a low-rank decomposition [[U,V,W]]
- ``transforms``  -- base-case permutations (Props. 2.1/2.2) and the
                     equivalence-class transforms (Prop. 2.3)
- ``compose``     -- classical algorithms, Kronecker products, direct sums
- ``recursion``   -- the reference (interpreter) recursive executor with
                     dynamic peeling and cutoff policies
- ``apa``         -- arbitrary-precision-approximate (APA) machinery
- ``cost``        -- arithmetic/communication/memory cost models
- ``workspace``   -- preallocated arenas with the Section 4.1/4.2 footprint
                     formulas (zero-allocation steady state for hot paths)
"""

from repro.core.algorithm import FastAlgorithm, EXACT_TOL
from repro.core.tensor import matmul_tensor
from repro.core.workspace import Workspace, track_allocations

__all__ = [
    "FastAlgorithm",
    "EXACT_TOL",
    "matmul_tensor",
    "Workspace",
    "track_allocations",
]
