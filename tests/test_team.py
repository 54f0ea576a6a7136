"""The C library's thread team (``fmm_team`` in ``codegen/fmm.c``).

Once a library loads, :func:`repro.parallel.blas.install_team` makes the
team OpenBLAS's threads callback, so every threaded vendor region runs on
it, and the step runs its forms on it at ``T > 1``.  Pinned here:

- an idle process burns no core after a threaded call, where OpenBLAS's
  own workers spin on for about 0.1 s;
- the bits: threaded ``np.matmul``, the vendor's batched waves and every
  scheme equal those of a process whose vendor keeps its own threads
  (``REPRO_CC=false``: no library loads), and the step at ``T`` threads
  equals the step at one;
- dispatcher threads that start regions at once all finish, correct;
- a forked child grows a team of its own.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
import conftest
from conftest import needs_cc

from repro.algorithms import get_algorithm, strassen
from repro.codegen import cbackend
from repro.parallel import SCHEMES, WorkerPool, blas, multiply_parallel
from repro.util.matrices import random_matrix

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

multi_core = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                                reason="needs at least 2 cores")


def _child(script: str, tmp_path: Path, **env) -> dict:
    """Run ``script`` in a fresh interpreter with ``src`` and ``tests`` on
    its path; its last output line is JSON."""
    full = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{TESTS}",
            "REPRO_CACHE_DIR": os.environ.get("REPRO_CACHE_DIR",
                                              str(tmp_path / "cache")),
            **env}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=full,
                          timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@needs_cc
@multi_core
def test_an_idle_process_burns_no_core(tmp_path):
    """Right after a 2-thread ``np.matmul`` OpenBLAS's own workers spin
    for about 0.1 s (about 93 ms of CPU in the next 0.1 s on two vCPUs);
    the team's helpers block as soon as the region ends."""
    out = _child("""
        import json, time
        import numpy as np
        from repro.codegen import cbackend
        from repro.parallel import blas
        cbackend.compile_chains("strassen")     # loads the library
        time.sleep(0.3)                          # any earlier spin runs out
        A = np.random.default_rng(0).random((1024, 1024))
        with blas.blas_threads(2):
            A @ A
        t = time.process_time()
        time.sleep(0.1)
        print(json.dumps({"vendor": blas.vendor_on_team(),
                          "ms": (time.process_time() - t) * 1e3}))
    """, tmp_path)
    if not out["vendor"]:
        pytest.skip("the vendor exports no threads callback")
    assert out["ms"] < 20


#: test_schedules.py's bit matrix: shape x dtype x steps x threads
MATRIX = [(shape, dtype, steps, threads)
          for shape in [(96, 96, 96), (95, 83, 101), (3, 3, 3)]
          for dtype in ("float64", "float32")
          for steps in (1, 2) for threads in (2, 3)]


def _products() -> list[np.ndarray]:
    """Every product the bits test compares, in one fixed order: threaded
    ``np.matmul`` large enough for the vendor to thread, two batched
    waves above its crash guard, and every scheme on the matrix."""
    rng = np.random.default_rng(5)
    out = []
    with blas.blas_threads(2):
        for p, q, r in [(512, 512, 512), (301, 700, 455)]:
            out.append(rng.random((p, q)) @ rng.random((q, r)))
        for dtype in ("float64", "float32"):
            A = rng.random((4, 160, 200)).astype(dtype)
            B = rng.random((4, 200, 180)).astype(dtype)
            C = np.empty((4, 160, 180), dtype)
            out.append(C if blas.gemm_batch(A, B, C) else A @ B)
    with WorkerPool(2) as pool:
        for (p, q, r), dtype, steps, threads in MATRIX:
            A = random_matrix(p, q, 8, dtype=dtype)
            B = random_matrix(q, r, 9, dtype=dtype)
            for scheme in SCHEMES:
                out.append(multiply_parallel(
                    A, B, strassen(), steps=steps, scheme=scheme, pool=pool,
                    threads=threads))
    return out


@needs_cc
def test_the_team_keeps_the_vendors_bits(tmp_path):
    """Everything the vendor computes on the team, and every scheme on
    the step's matrix, equals what a process without the library (the
    vendor on its own threads, the interpreter serving every scheme)
    computes."""
    cbackend.compile_chains("strassen")
    ours = _products()
    _child("""
        import json
        import numpy as np
        from test_team import _products
        np.savez("theirs.npz", *_products())
        print(json.dumps({}))
    """, tmp_path, REPRO_CC="false")
    with np.load(tmp_path / "theirs.npz") as theirs:
        assert len(theirs.files) == len(ours)
        for i, X in enumerate(ours):
            Y = theirs[f"arr_{i}"]
            assert X.dtype == Y.dtype and np.array_equal(X, Y), i


@needs_cc
@pytest.mark.parametrize("alg,steps,shape", [
    ("strassen", 2, (256, 256, 256)),
    ("strassen", 1, (301, 277, 263)),
    ("s333", 1, (300, 301, 302)),
    ("s424", 2, (131, 77, 93)),
])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("cse", [False, True])
def test_the_steps_forms_over_row_ranges_keep_its_bits(alg, steps, shape,
                                                       dtype, cse):
    """At ``T`` threads every level's forms run over ``T`` row ranges,
    one per thread of the team: never a chain's terms reordered, so the
    one-thread step's bits at every ``T``, ranges of one row or none
    included (``s424``'s second level has 8 rows).  With CSE, C-side
    definitions share one ``Y`` row, so ``form_C`` stays one range."""
    p, q, r = shape
    A = random_matrix(p, q, 1, dtype=dtype)
    B = random_matrix(q, r, 2, dtype=dtype)
    cc = cbackend.compile_chains(alg, cse, dtype=dtype)
    with blas.blas_threads(1):
        ref = cc.multiply(A, B, steps=steps)
        for threads in (2, 3, 9):
            assert np.array_equal(
                cc.multiply(A, B, steps=steps, threads=threads), ref), threads


@needs_cc
@pytest.mark.multicore
def test_dispatchers_share_the_team():
    """Four dispatcher threads start DFS and HYBRID calls and threaded
    ``np.matmul`` at once, each region at the tier's width: regions of
    different threads take turns on the team (the vendor's job ``i``
    works in its buffer ``i``), and every result equals its serial
    bits."""
    T = conftest.test_thread_budget()
    A = random_matrix(512, 512, 3)
    A32 = A.astype(np.float32)
    jobs = [
        lambda: multiply_parallel(A, A, strassen(), steps=2, scheme="dfs",
                                  threads=T),
        lambda: multiply_parallel(A, A, strassen(), steps=1,
                                  scheme="hybrid", threads=T),
        lambda: multiply_parallel(A32, A32, get_algorithm("s333"), steps=1,
                                  scheme="dfs", threads=T),
        lambda: A @ A,
    ]
    with blas.blas_threads(T):
        serial = [job() for job in jobs]
    mismatches, errors = [], []

    def dispatcher(i):
        try:
            with blas.blas_threads(T):
                for _ in range(5):
                    if not np.array_equal(jobs[i](), serial[i]):
                        mismatches.append(i)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=dispatcher, args=(i,), daemon=True)
               for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "a dispatcher hung"
    assert not errors and not mismatches


def _forked(A, want_mm, want_dfs, conn) -> None:
    with blas.blas_threads(2):
        ok = (np.array_equal(A @ A, want_mm)
              and np.array_equal(multiply_parallel(
                  A, A, strassen(), steps=1, scheme="dfs", threads=2),
                  want_dfs))
    conn.send(ok)


@needs_cc
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_a_forked_child_grows_its_own_team():
    """The parent's helpers stay behind in a fork: the child's first
    region finds no team and grows one, rather than waiting for threads
    that do not exist."""
    A = random_matrix(512, 512, 4)
    with blas.blas_threads(2):            # the parent's team has a helper
        want_mm = A @ A
        want_dfs = multiply_parallel(A, A, strassen(), steps=1,
                                     scheme="dfs", threads=2)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_forked, args=(A, want_mm, want_dfs, send))
    child.start()
    try:
        assert recv.poll(120), "the forked child hung"
        assert recv.recv() is True
    finally:
        child.join(10)
        if child.is_alive():  # pragma: no cover - hung child
            child.kill()
            child.join()
    assert child.exitcode == 0
