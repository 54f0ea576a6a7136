"""The four workloads of the end-to-end benchmark, as data.

Sizes are fixed here; there is no scale knob.  ``BENCHMARK.json`` carries
each workload's name and one-line reason, README.md the longer argument.
This module imports nothing from ``repro`` so the parent process (which
must stay light: the child's ``ru_maxrss`` is a metric) can read it.
"""

from __future__ import annotations

import dataclasses
import os

#: marker for "as many worker/BLAS threads as the closed loop is allowed"
T = "T"


def max_threads() -> int:
    """``T = min(nproc, 4)``: the thread ceiling of every workload."""
    return min(os.cpu_count() or 1, 4)


@dataclasses.dataclass(frozen=True)
class PlanSpec:
    """A pinned plan, by catalog name; the thread count comes from the case."""

    algorithm: str
    steps: int
    scheme: str = "sequential"
    backend: str = "numpy"

    @property
    def label(self) -> str:
        cc = "[cc]" if self.backend == "compiled" else ""
        return f"{self.algorithm}x{self.steps}.{self.scheme}{cc}"


@dataclasses.dataclass(frozen=True)
class Case:
    """One operand set: a shape, a dtype, a thread count, its pinned plans.

    ``batch > 0`` makes it a stacked ``(batch, p, q) @ (batch, q, r)``
    request served by ``repro.matmul_batched``.  ``tune_budget_s == 0``
    leaves the shape out of the setup tune pass, so dispatch has to serve
    it from a neighbour or from the cost model.
    """

    shape: tuple[int, int, int]
    dtype: str = "float64"
    threads: int | str = 1
    batch: int = 0
    pinned: tuple[PlanSpec, ...] = ()
    tune_budget_s: float = 20.0

    @property
    def label(self) -> str:
        p, q, r = self.shape
        stack = f"{self.batch}x" if self.batch else ""
        return f"{stack}{p}x{q}x{r}.{self.dtype}"


@dataclasses.dataclass(frozen=True)
class Workload:
    """``stream == 0``: every round times every case once (one unit per
    case).  ``stream > 0``: every round times one seeded stream of that
    many single requests drawn from the unbatched cases, with
    ``stream_batched`` batched requests interleaved (one unit per round);
    the ``untuned`` variant then serves only the first ``untuned_share``
    of the single requests."""

    name: str
    cases: tuple[Case, ...]
    primary: int = 0
    stream: int = 0
    stream_batched: int = 0
    untuned_share: float = 1.0


_CC1 = PlanSpec("strassen", 1, backend="compiled")
_NP1 = PlanSpec("strassen", 1)

_MIX_SHAPES = (
    (96, 96, 96), (128, 128, 128), (160, 160, 160), (192, 192, 192),
    (256, 256, 256), (320, 320, 320), (384, 384, 384), (256, 96, 256),
    (384, 128, 384), (512, 160, 160), (768, 192, 192), (200, 200, 200),
    (250, 130, 250), (333, 333, 333),
)
#: only these are tuned, so the stream meets every lookup source
_MIX_TUNED = 8
#: float64 shapes with a dimension under 128 bypass plan lookup entirely
_MIX_TRIVIAL_DIM = 128

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("square_seq", cases=(
        Case((2048, 2048, 2048), pinned=(_CC1, _NP1)),
    )),
    Workload("rect_seq", cases=(
        Case((2999, 801, 2999),
             pinned=(_CC1, PlanSpec("s424", 1, backend="compiled"))),
        Case((6001, 799, 799), dtype="float32",
             pinned=(_NP1, PlanSpec("s433", 1))),
    )),
    Workload("square_par", cases=(
        Case((2048, 2048, 2048), threads=T, pinned=(
            PlanSpec("strassen", 1, scheme="bfs"),
            PlanSpec("strassen", 1, scheme="dfs"),
            PlanSpec("strassen", 2, scheme="hybrid"),
        )),
    )),
    Workload(
        "dispatch_mix",
        cases=tuple(
            Case(shape,
                 pinned=(_CC1,) if min(shape) >= _MIX_TRIVIAL_DIM else (),
                 tune_budget_s=1.0 if i < _MIX_TUNED else 0.0)
            for i, shape in enumerate(_MIX_SHAPES)
        ) + (
            Case((128, 128, 128), threads=T, batch=32, tune_budget_s=0.0),
            Case((256, 256, 256), threads=T, batch=16, tune_budget_s=0.0),
        ),
        primary=4, stream=200, stream_batched=10, untuned_share=0.25,
    ),
)}
