"""The static-analysis suite (repro.analyze) -- golden runs and mutation tests.

The analyzers are only trustworthy if they are *sensitive*: a checker
that passes everything is indistinguishable from one that checks
nothing.  So alongside the golden all-clean sweeps, every analyzer is
fed a deliberately corrupted artifact -- a flipped coefficient, swapped
multiply operands, a dropped release, an unlocked
mutation, a corrupted catalog entry -- and must report the exact finding
code the corruption deserves.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import re
import threading

import numpy as np
import pytest

from conftest import catalog_names, run_cli
from repro import analyze
from repro.algorithms import get_algorithm
from repro.analyze import arena, catalog, cemit, concurrency
from repro.analyze.base import Finding, has_code
from repro.core import recursion


# ---------------------------------------------------------------- findings
def test_finding_str_and_dict():
    f = Finding("cemit", "CEMIT-TENSOR", "strassen[cbackend]",
                "coefficient mismatch", {"worst": 1.0})
    assert str(f) == ("[cemit:CEMIT-TENSOR] strassen[cbackend]: "
                      "coefficient mismatch")
    d = f.to_dict()
    assert d["code"] == "CEMIT-TENSOR" and d["detail"] == {"worst": 1.0}
    assert has_code([f], "CEMIT-TENSOR") and not has_code([f], "CEMIT-RANK")


# ---------------------------------------------------------------- golden
def test_arena_tree_sweep_clean():
    checked, findings = arena.check_tree()
    assert checked > 100  # every function in src/repro is swept
    assert findings == []


def test_concurrency_tree_sweep_clean():
    checked, findings = concurrency.check_tree()
    assert checked >= len(concurrency.REGISTRY)
    assert findings == []


def test_catalog_golden():
    checked, findings = catalog.check_catalog()
    assert checked >= 15
    assert findings == []


def test_cemit_golden_catalog():
    # the descriptor sweep needs no compiler: a descriptor is NumPy
    # arrays, so this proof holds on toolchain-free hosts too
    checked, findings = cemit.verify_catalog()
    assert checked >= 20
    assert findings == []


# ---------------------------------------------------------------- mutations
def test_mutation_dropped_release_is_detected():
    # the interpreter's level mark, with its release taken out
    src = inspect.getsource(recursion._core_multiply)
    mut = src.replace("        ws.release(level_mark)\n", "        pass\n", 1)
    assert mut != src
    for text, expect in ((src, False), (mut, True)):
        findings = arena.check_function_marks(ast.parse(text).body[0], "mut")
        assert has_code(findings, "ARENA-UNRELEASED") is expect


_UNLOCKED_MODULE = """
import threading
_lock = threading.Lock()
_entries = {}

def put(key, value):
    _entries[key] = value

def put_locked(key, value):
    _entries[key] = value

def put_guarded(key, value):
    with _lock:
        _entries[key] = value
"""


def test_mutation_unlocked_mutation_is_detected():
    states = (concurrency.SharedState("fake.mod", "_entries", "_lock", "test"),)
    checked, findings = concurrency.check_module_source(
        _UNLOCKED_MODULE, states, where="fake.mod")
    # three mutation sites; only the one outside a lock / *_locked helper
    # may fire
    assert checked == 3
    assert [f.code for f in findings] == ["CONC-UNLOCKED"]
    assert findings[0].where == "fake.mod:7"


def _mutant(desc, **arrays):
    """``desc`` with the named arrays edited: each value is a function of
    a writable copy of that field (a tuple of three copies for the
    per-side fields)."""
    fields = {}
    for name, edit in arrays.items():
        value = getattr(desc, name)
        copy = (tuple(a.copy() for a in value) if isinstance(value, tuple)
                else value.copy())
        edit(copy)
        fields[name] = copy
    return dataclasses.replace(desc, **fields)


def _cemit_codes(desc, alg, cse=False, real="double"):
    return {f.code for f in cemit.verify_descriptor(desc, alg, cse, real,
                                                    where="mut")}


def test_mutation_cemit_corruptions_are_detected():
    """A flipped coefficient, swapped operands, a target that is also a
    source and a home still being read each have their finding, as do a
    program that runs on and coefficients of the wrong element type."""
    from repro.codegen.cbackend import descriptor

    alg = get_algorithm("strassen")
    desc = descriptor(alg)
    assert cemit.verify_descriptor(desc, alg, False) == []

    def flip(coef):
        coef[0][0] = -coef[0][0]

    def swap(ops):
        ops[[0, 5], 0] = ops[[5, 0], 0]

    assert "CEMIT-TENSOR" in _cemit_codes(_mutant(desc, coefficients=flip),
                                          alg)
    assert "CEMIT-TENSOR" in _cemit_codes(_mutant(desc, operands=swap), alg)
    # S[0] <- A0 + A3 becomes S[0] <- A0 + S[0]: the pass would read what
    # it writes
    assert desc.programs[0][1:5].tolist() == [~0, 2, 0, 3]
    assert "CEMIT-ALIAS" in _cemit_codes(
        _mutant(desc, programs=lambda p: p[0].__setitem__(4, ~0)), alg)
    # shape variant 3: rank 1 (which reads S row 1) made its own home
    assert desc.homes[3, 1].tolist() == [1, 0]
    assert "CEMIT-GEMM" in _cemit_codes(
        _mutant(desc, homes=lambda h: h.__setitem__((3, 1), [0, 1])), alg)
    # one chain too many claimed, and float coefficients in a double one
    assert "CEMIT-LAYOUT" in _cemit_codes(
        _mutant(desc, programs=lambda p: p[2].__setitem__(0, 5)), alg)
    flt = descriptor(alg, real="float")
    assert "CEMIT-LAYOUT" in _cemit_codes(flt, alg)
    assert _cemit_codes(flt, alg, real="float") == set()


def test_cemit_proves_both_element_types():
    """Every catalog x CSE descriptor is proven over ``double`` and over
    ``float`` (to the rounding of its coefficients): a coefficient flipped
    in a float descriptor of an APA entry, where cancellation is worst,
    still fails."""
    from repro.codegen.cbackend import REALS, descriptor

    names = catalog_names()
    checked, findings = cemit.verify_catalog(names)
    assert findings == [] and checked == 1 + 2 * len(REALS) * len(names)
    for name in ("bini322", "schonhage333", "s424"):
        alg = get_algorithm(name)
        flt = descriptor(alg, True, "float")
        assert _cemit_codes(flt, alg, True, "float") == set()
        for side in range(3):
            def flip(coef, side=side):
                coef[side][-1] = -coef[side][-1]
            assert "CEMIT-TENSOR" in _cemit_codes(
                _mutant(flt, coefficients=flip), alg, True, "float")


def test_mutation_cemit_definition_reads_are_proven():
    """With CSE a chain reads definitions from earlier rows: a chain
    re-pointed at its own row aliases, one that reads a row no chain has
    written yet reads garbage."""
    from repro.codegen.cbackend import descriptor

    s333 = get_algorithm("s333")
    desc = descriptor(s333, True)
    assert cemit.verify_descriptor(desc, s333, True) == []
    prog = desc.programs[0]
    # the first chain that reads a definition row: its target and where
    pos = 1
    for _ in range(int(prog[0])):
        n = int(prog[pos + 1])
        rows = [u for u in range(n) if prog[pos + 2 + u] < 0]
        if rows:
            break
        pos += 2 + n
    at = pos + 2 + rows[0]
    assert "CEMIT-ALIAS" in _cemit_codes(_mutant(
        desc, programs=lambda p: p[0].__setitem__(at, prog[pos])), s333, True)
    last = ~(int(desc.rows[0]) - 1)
    assert "CEMIT-LAYOUT" in _cemit_codes(_mutant(
        desc, programs=lambda p: p[0].__setitem__(at, last)), s333, True)


def test_mutation_cemit_step_products_are_proven(monkeypatch):
    """``fmm_step``: a vendor call scaled by anything but alpha = 1,
    beta = 0, a rank that reads a slab row nothing writes, a home a later
    rank still reads, two products in one home, own rows out of order, a
    product ``form_C`` never reads, stale row counts and descriptor fields
    that drift from the contract -- each has its finding."""
    from repro.codegen.cbackend import LIBRARY, descriptor

    src = LIBRARY.read_text()
    assert cemit.verify_library(src) == []
    gemm = "x->gemm(101, 111, 111, M, N, K, 1, A, lda, B, ldb, 0, C, ldc);"
    assert gemm in src
    for bad in (gemm.replace("K, 1,", "K, 2,"),
                gemm.replace("ldb, 0,", "ldb, 1,")):
        assert has_code(cemit.verify_library(src.replace(gemm, bad)),
                        "CEMIT-GEMM")
    # the descriptor's fields are the contract the pass reads by
    monkeypatch.setattr(cemit, "EMISSION_CONTRACT",
                        cemit.EMISSION_CONTRACT[:-1])
    assert has_code(cemit.verify_library(src), "CEMIT-LAYOUT")

    alg = get_algorithm("strassen")
    desc = descriptor(alg)
    assert "CEMIT-GEMM" in _cemit_codes(_mutant(
        desc, operands=lambda o: o.__setitem__((0, 0), ~7)), alg)
    # shape variant 3: rank 2 writes S row 1 (rank 1's, done) -- not row
    # 3, rank 5's, nor T row 0, rank 1's home; own rows count from 0
    assert desc.homes[3].tolist() == [[3, 3], [1, 0], [0, 1], [3, 2],
                                      [3, 1], [0, 2], [3, 0]]
    for rank, home in ((2, [0, 3]), (2, [1, 0]), (0, [2, 1])):
        assert "CEMIT-GEMM" in _cemit_codes(_mutant(
            desc, homes=lambda h: h.__setitem__((3, rank), home)), alg), home
    # C0 <- M0 + M3 - M4 + M6 reading M5 for M6: nothing reads M6
    prog = desc.programs[2]
    assert prog[1:7].tolist() == [0, 4, 0, 3, 4, 6]
    assert "CEMIT-RANK" in _cemit_codes(_mutant(
        desc, programs=lambda p: p[2].__setitem__(6, 5)), alg)
    assert "CEMIT-LAYOUT" in _cemit_codes(_mutant(
        desc, rows=lambda r: r.__setitem__(0, 4)), alg)


def _cemit_findings(desc, alg, cse=False):
    return [(f.code, f.message) for f in cemit.verify_descriptor(
        desc, alg, cse, where="mut")]


def test_mutation_cemit_c_homes_are_proven():
    """A block of C holds a product only where its chain reads it in the
    first pass and no later chain reads it: a product read after its block
    is stored, one read in a second pass and two products in one block
    each have their finding, and the pass width is the library's."""
    from repro.codegen.cbackend import LIBRARY, PASS_TERMS, descriptor

    alg = get_algorithm("strassen")
    desc = descriptor(alg)
    # C0 <- M0 + M3 - M4 + M6, ..., C3 <- M0 - M1 + M2 + M5: C3 holds M0,
    # C2 M3, C1 M4 and C0 M6 (shape variant 3)
    assert {b: r for r, (kind, b) in enumerate(desc.homes[3].tolist())
            if kind == 3} == {3: 0, 2: 3, 1: 4, 0: 6}

    def homes(edits):
        def edit(h):
            for rank, home in edits:
                h[3, rank] = home
        return edit

    # M0 in C0, which reads it first, while C3 reads it after C0 is stored
    # (M6 moved to an own row to leave C0 to M0)
    late = _cemit_findings(_mutant(
        desc, homes=homes([(0, [3, 0]), (6, [2, 0])])), alg)
    assert [code for code, _ in late] == ["CEMIT-GEMM"]
    assert "after the block is stored" in late[0][1]
    # M5 also in C3, which holds M0 already
    two = _cemit_findings(_mutant(desc, homes=homes([(5, [3, 3])])), alg)
    assert {code for code, _ in two} == {"CEMIT-GEMM"}
    assert any("holds products 0 and 5" in msg for _, msg in two)

    # s424's one hosted product moved past its chain's first pass: the
    # chain's terms swapped, the bilinear form unchanged
    s424 = get_algorithm("s424")
    desc = descriptor(s424)
    assert cemit.verify_descriptor(desc, s424, False) == []
    (r, b), = ((r, b) for r, (kind, b) in enumerate(desc.homes[0].tolist())
               if kind == 3)
    pos, term = 1, 0
    for tgt, terms in desc.chains(2):
        if tgt == b:
            break
        pos, term = pos + 2 + len(terms), term + len(terms)
    u = [src for _, src in terms].index(r)
    assert u < PASS_TERMS < len(terms)

    def swap(arrays, at):
        a = arrays[2]
        a[[at + u, at + PASS_TERMS]] = a[[at + PASS_TERMS, at + u]]

    later = _cemit_findings(_mutant(
        desc, programs=lambda p: swap(p, pos + 2),
        coefficients=lambda c: swap(c, term)), s424)
    assert {code for code, _ in later} == {"CEMIT-ALIAS", "CEMIT-GEMM"}
    assert any("first pass" in msg for code, msg in later
               if code == "CEMIT-GEMM")

    src = LIBRARY.read_text()
    assert "enum { W = 10 };" in src and PASS_TERMS == 10
    assert has_code(cemit.verify_library(
        src.replace("enum { W = 10 };", "enum { W = 12 };")), "CEMIT-LAYOUT")


def test_mutation_unlocked_lib_cache_is_detected():
    # satellite regression: the shared-library cache must stay behind its
    # lock.  The shipped source is proven clean, then the cache store is
    # hoisted out of its ``with _lib_lock`` block and the lint must fire.
    from pathlib import Path

    import repro.codegen.cbackend as cb

    src = Path(cb.__file__).read_text()
    states = tuple(s for s in concurrency.REGISTRY
                   if s.module == "codegen/cbackend.py")
    assert {s.name for s in states} >= {"_LIB_CACHE", "_CACHE_STATE"}
    _, clean = concurrency.check_module_source(
        src, states, where="codegen/cbackend.py")
    assert clean == []
    mut = re.sub(
        r"with _lib_lock:\n(?:\s*#[^\n]*\n)*\s*"
        r"return _LIB_CACHE\.setdefault\(key, lib\)",
        "return _LIB_CACHE.setdefault(key, lib)", src)
    assert mut != src
    _, findings = concurrency.check_module_source(mut, states, where="mut")
    assert has_code(findings, "CONC-UNLOCKED")


def test_mutation_corrupted_scheme_is_detected():
    alg = get_algorithm("strassen")
    U = alg.U.copy()
    U[0, 0] += 1.0
    bad = dataclasses.replace(alg, U=U)
    findings = catalog.check_algorithm(bad, where="mut")
    assert has_code(findings, "CAT-RESIDUAL")


def test_mutation_wrong_shape_is_detected():
    # FastAlgorithm's constructor validates shapes eagerly, so the broken
    # entry is a duck type -- exactly what a corrupted on-disk payload
    # that bypassed the constructor would look like
    import types

    alg = get_algorithm("strassen")
    bad = types.SimpleNamespace(
        name="mut", m=alg.m, k=alg.k, n=alg.n, rank=alg.rank, apa=False,
        U=np.zeros((3, alg.rank)), V=alg.V, W=alg.W)
    findings = catalog.check_algorithm(bad, where="mut")
    assert has_code(findings, "CAT-SHAPE")


# ---------------------------------------------------------------- facade
def test_run_dispatches_and_counts():
    checked, findings = analyze.run("catalog")
    assert checked >= 15 and findings == []
    with pytest.raises(ValueError):
        analyze.run("nonesuch")


# ---------------------------------------------------------------- cli
def test_cli_analyze_selected_passes():
    rc, out = run_cli("analyze", "--catalog", "--concurrency")
    assert rc == 0
    assert "catalog" in out and "clean" in out


def test_cli_analyze_json_shape():
    rc, out = run_cli("analyze", "--cemit", "--arena",
                      "-a", "strassen", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["analyzers"] == ["cemit", "arena"]
    assert payload["findings"] == []
    assert payload["checked"] > 0


# ------------------------------------------------------- lock regressions
def test_plan_cache_concurrent_mutation(tmp_path):
    # regression for the unlocked PlanCache the concurrency lint caught:
    # hammer one cache from several threads; without the RLock this
    # corrupts the entry dict / failure ledger
    from repro.tuner.cache import PlanCache
    from repro.tuner.space import Plan

    cache = PlanCache(tmp_path / "plans.json")
    plan = Plan(algorithm="strassen", steps=1, scheme="sequential",
                threads=1)
    errors = []

    def worker(tid):
        try:
            for i in range(50):
                cache.put(64 + tid, 64, 64 + i % 7, "float64", 1, plan, 0.001)
                cache.get(64 + tid, 64, 64 + i % 7, "float64", 1)
                cache.record_failure(64 + tid, 64, 64, "float64", 1,
                                     plan, RuntimeError("x"))
                cache.plan_quarantined(64 + tid, 64, 64, "float64", 1, plan)
                cache.keys()
                cache.save()
        except Exception as exc:  # noqa: BLE001 -- the assertion is "no exception"
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    cache2 = PlanCache(tmp_path / "plans.json")
    assert len(cache2) > 0  # the file survived concurrent saves


def test_shared_cache_single_instance_under_race():
    # regression for the unlocked lazy init in dispatch._shared_cache
    from repro.tuner import dispatch

    dispatch.reset_shared_cache()
    found = []
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait()
        found.append(dispatch._shared_cache())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(c) for c in found}) == 1
    dispatch.reset_shared_cache()
