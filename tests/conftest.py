"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms import classical, get_algorithm, strassen, winograd
from repro.bench import machine

#: worker-thread count the multicore tier exercises; single-core boxes can
#: still run the tier by exporting REPRO_TEST_THREADS (thread pools work
#: fine oversubscribed, just slower), which is exactly what CI does
MULTICORE_THREADS = 4


def test_thread_budget() -> int:
    """Threads the multicore tier may assume: ``REPRO_TEST_THREADS`` if
    set (CI pins it so the tier is explicit, never a runner accident),
    else the machine's CPU count."""
    env = os.environ.get("REPRO_TEST_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return os.cpu_count() or 1


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')"
    )
    config.addinivalue_line(
        "markers",
        "multicore: needs >= 4 worker threads (REPRO_TEST_THREADS or "
        "cpu_count); auto-skipped below that so single-core local runs "
        "stay green",
    )
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection resilience test (repro.guard); the CI "
        "chaos job runs exactly these with REPRO_TEST_THREADS=4",
    )


def pytest_collection_modifyitems(config, items):
    budget = test_thread_budget()
    if budget >= MULTICORE_THREADS:
        return
    skip = pytest.mark.skip(
        reason=f"multicore tier needs >= {MULTICORE_THREADS} threads "
               f"(have {budget}); set REPRO_TEST_THREADS={MULTICORE_THREADS} "
               f"to force"
    )
    for item in items:
        if "multicore" in item.keywords:
            item.add_marker(skip)


def run_cli(*argv):
    """Parse ``argv`` with the real CLI parser and dispatch in-process.

    Shared by every CLI-exercising test module; resolves the handler from
    the command name, so new subcommands need no harness changes.
    """
    import io

    from repro import cli

    out = io.StringIO()
    args = cli._build_parser().parse_args(list(argv))
    rc = getattr(cli, f"cmd_{args.command}")(args, out=out)
    return rc, out.getvalue()


class FakeClock:
    """Monotonic clock whose time only moves when a fake plan 'runs' --
    the scripted timing oracle of the policy-convergence tests."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def advance(self, dt):
        self.t += dt


#: the measuring ``machine.calibration``, captured before the synthetic
#: machine below replaces it (see the ``real_calibration`` fixture)
_REAL_CALIBRATION = machine.calibration


def synthetic_calibration(dtype="float64", threads=1, gflops=10.0,
                          sizes=(32, 4096), add_gbs=60.0, call_s=0.0,
                          task_s=0.0, blas_scaling=1.0):
    """A made-up machine for the seconds model: ``gflops`` (a number for a
    flat curve, or one value per entry of ``sizes``) and ``add_gbs`` are
    per thread; additions scale perfectly with ``threads``, a gemm by
    ``threads ** blas_scaling``."""
    rates = [gflops] * len(sizes) if np.isscalar(gflops) else list(gflops)
    curve = machine.GemmCurve(list(sizes),
                              [g * threads ** blas_scaling for g in rates],
                              threads=threads, dtype=dtype)
    return machine.Calibration(dtype, threads, curve, add_gbs * threads,
                               call_s, task_s)


def calibration_source(**machine_kw):
    """A stand-in for ``machine.calibration`` that serves (and keeps) one
    :func:`synthetic_calibration` per ``(dtype, threads)``."""
    made = {}

    def lookup(dtype="float64", threads=1, volume=0):
        key = ("float32" if str(dtype) == "float32" else "float64",
               int(threads))
        if key not in made:
            made[key] = synthetic_calibration(*key, **machine_kw)
        return made[key]
    return lookup


@pytest.fixture(autouse=True, scope="session")
def synthetic_machine():
    """The suite never times this machine: the cost model reads a flat
    10 GFLOPS/thread gemm curve, 60 GB/s/thread additions and no fixed
    costs -- an addition flop worth about four gemm flops, so fast plans
    win from a few hundred up and every tuner test has a shortlist to
    work with, identically on every host."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine, "calibration", calibration_source())
        yield


@pytest.fixture
def use_machine(monkeypatch):
    """``use_machine(gflops=..., add_gbs=..., ...)``: run the rest of the
    test on another synthetic machine."""
    def install(**machine_kw):
        source = calibration_source(**machine_kw)
        monkeypatch.setattr(machine, "calibration", source)
        return source
    return install


@pytest.fixture
def real_calibration(monkeypatch, tmp_path):
    """The measuring ``machine.calibration``, for the tests of calibration
    itself: nothing in memory yet, files under ``tmp_path``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(machine, "_calibrations", {})
    return _REAL_CALIBRATION


@pytest.fixture
def fresh_cache_state():
    """Snapshot and restore cbackend's module-level cache state so tests
    can redirect the cache dir / clear loaded libraries and kernels (the
    next use has to go through the compiler -- where the
    ``cbackend.compilefail`` fault point is) without leaking into the
    rest of the suite."""
    from repro.codegen import cbackend

    with cbackend._lib_lock:
        saved_state = dict(cbackend._CACHE_STATE)
        saved_libs = dict(cbackend._LIB_CACHE)
        saved_chains = dict(cbackend._CHAINS)
        cbackend._CACHE_STATE.update({"dir": False, "warned": False})
        cbackend._LIB_CACHE.clear()
        cbackend._CHAINS.clear()
    yield
    with cbackend._lib_lock:
        cbackend._CACHE_STATE.clear()
        cbackend._CACHE_STATE.update(saved_state)
        cbackend._LIB_CACHE.clear()
        cbackend._LIB_CACHE.update(saved_libs)
        cbackend._CHAINS.clear()
        cbackend._CHAINS.update(saved_chains)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20150207)


def catalog_names() -> list[str]:
    """Every registry name expected to resolve in this repository."""
    return [
        "strassen", "winograd", "hk223", "hk224", "hk225",
        "s233", "s234", "s244", "s333", "s334", "s344", "s336",
        "classical222", "classical234",
    ]


def exact_catalog() -> list:
    """All exact algorithms (APA excluded), for correctness sweeps."""
    out = []
    for name in catalog_names():
        alg = get_algorithm(name)
        if not alg.apa:
            out.append(alg)
    return out


@pytest.fixture(scope="session")
def all_exact_algorithms():
    return exact_catalog()


@pytest.fixture(scope="session")
def strassen_alg():
    return strassen()


@pytest.fixture(scope="session")
def winograd_alg():
    return winograd()


@pytest.fixture(scope="session")
def classical222():
    return classical(2, 2, 2)
