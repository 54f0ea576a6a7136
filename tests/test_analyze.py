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
from repro.analyze import arena, catalog, cemit, concurrency, symbolic
from repro.analyze.base import Finding, has_code
from repro.codegen.generator import generate_source
from repro.codegen.strategies import EMISSION_CONTRACT, STRATEGIES
from repro.core import recursion


def _source(alg_name="strassen", strategy="write_once", cse=False):
    return generate_source(get_algorithm(alg_name), strategy=strategy, cse=cse)


# ---------------------------------------------------------------- findings
def test_finding_str_and_dict():
    f = Finding("symbolic", "SYM-TENSOR", "strassen/write_once",
                "coefficient mismatch", {"worst": 1.0})
    assert str(f) == "[symbolic:SYM-TENSOR] strassen/write_once: coefficient mismatch"
    d = f.to_dict()
    assert d["code"] == "SYM-TENSOR" and d["detail"] == {"worst": 1.0}
    assert has_code([f], "SYM-TENSOR") and not has_code([f], "SYM-RANK")


# ---------------------------------------------------------------- golden
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("cse", [False, True])
def test_symbolic_golden_strassen(strategy, cse):
    findings = symbolic.verify_algorithm("strassen", strategy, cse)
    assert findings == []


@pytest.mark.parametrize("name", ["winograd", "s333", "bini322"])
def test_symbolic_golden_other_entries(name):
    # one exact high-rank entry, one <3,3,3>, one APA -- the APA case
    # proves the verifier checks against the entry's own [U,V,W], not
    # against the exact matmul tensor (APA schemes differ from it by
    # design)
    assert symbolic.verify_algorithm(name, "write_once", False) == []


def test_symbolic_rejects_scheme_metadata_drift():
    src = _source()
    # stale fingerprint: the module claims provenance it does not have
    mut = re.sub(r"'fingerprint': '[0-9a-f]+'", "'fingerprint': 'deadbeef'", src)
    assert mut != src
    findings = symbolic.verify_source(mut, where="mut")
    assert has_code(findings, "SYM-META")


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
    # the C emitter sweep needs no compiler: emission is pure string
    # generation, so this proof holds on toolchain-free hosts too
    checked, findings = cemit.verify_catalog()
    assert checked >= 20
    assert findings == []


# ---------------------------------------------------------------- mutations
def test_mutation_flipped_coefficient_is_detected():
    src = _source()
    site = re.search(r"np\.add\((S\d+), (A\d+), out=\1\)", src).group(0)
    mut = src.replace(site, site.replace("np.add", "np.subtract"), 1)
    findings = symbolic.verify_source(mut, where="mut")
    assert has_code(findings, "SYM-TENSOR")


def test_mutation_swapped_operands_is_detected():
    src = _source()
    m = re.search(r"_run\((S\d+), (T\d+), ", src)
    mut = src.replace(m.group(0), f"_run({m.group(2)}, {m.group(1)}, ", 1)
    findings = symbolic.verify_source(mut, where="mut")
    assert has_code(findings, "SYM-OPERANDS")


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


def test_mutation_cemit_corruptions_are_detected():
    from repro.codegen.cbackend import generate_c_source

    alg = get_algorithm("strassen")
    src = generate_c_source(alg, False)
    # flipped sign in a fused store -> wrong bilinear tensor
    sign = src.replace("pA0[j] + pA3[j]", "pA0[j] - pA3[j]", 1)
    assert sign != src
    assert has_code(cemit.verify_source(sign, alg, False, where="mut"),
                    "CEMIT-TENSOR")
    # a statement outside the emission contract fails loud, never skips
    alien = src.replace("#include <stddef.h>",
                        "#include <stddef.h>\nint rogue = 1;")
    assert has_code(cemit.verify_source(alien, alg, False, where="mut"),
                    "CEMIT-PARSE")
    # a kernel that strays outside its row range [i0, i1): a loop over
    # every row, an off-by-one bound, a signature without the range
    for good, bad in (
            ("for (long i = i0; i < i1; ++i) {",
             "for (long i = 0; i < bp; ++i) {"),
            ("for (long i = i0; i < i1; ++i) {",
             "for (long i = i0; i <= i1; ++i) {"),
            ("double *S, long i0, long i1)", "double *S)"),
            ("for (long j = 0; j < bq; ++j)",
             "for (long j = 0; j <= bq; ++j)")):
        strayed = src.replace(good, bad, 1)
        assert strayed != src
        assert has_code(cemit.verify_source(strayed, alg, False,
                                            where="mut"),
                        "CEMIT-PARSE" if "long j" in bad else "CEMIT-RANGE")
    # provenance header drift
    stale = src.replace("rank 7", "rank 8", 1)
    assert stale != src
    assert has_code(cemit.verify_source(stale, alg, False, where="mut"),
                    "CEMIT-HEADER")


def test_cemit_proves_both_element_types():
    """Every catalog x CSE unit is proven as printed over ``double`` and
    over ``float``, and a unit is proven only as the type it claims."""
    from repro.codegen.cbackend import REALS, generate_c_source

    names = catalog_names()
    checked, findings = cemit.verify_catalog(names)
    assert findings == [] and checked == 2 * len(REALS) * len(names)
    alg = get_algorithm("strassen")
    unit = generate_c_source(alg, False, "float")
    assert cemit.verify_source(unit, alg, False, real="float") == []
    assert has_code(cemit.verify_source(unit, alg, False, where="mut"),
                    "CEMIT-PARSE")


def test_mutation_float_unit_with_a_stray_double_is_detected():
    """A ``double`` in a ``float`` unit widens its chain: a pointer, a
    strip scalar, a signature or a coefficient literal -- each fails."""
    from repro.algorithms import list_algorithms
    from repro.codegen.cbackend import generate_c_source

    alg = get_algorithm("s333")
    src = generate_c_source(alg, True, "float")

    def codes(mutant, algorithm=alg, cse=True):
        assert mutant != src
        return {f.code for f in cemit.verify_source(
            mutant, algorithm, cse, where="mut", real="float")}

    slab = re.search(r"    float \*pS\d+ = S \+", src).group(0)
    for good, bad in (
            (slab, slab.replace("float", "double")),
            ("const float a = A12", "const double a = A12"),
            ("const float *b = B21", "const double *b = B21"),
            ("const float *X, long ldx", "const double *X, long ldx"),
            ("float *C, long ldc", "double *C, long ldc")):
        found = codes(src.replace(good, bad, 1))
        assert found & {"CEMIT-PARSE", "CEMIT-RANGE"}, (bad, found)
    # a double literal: find a unit that scales, and drop one ``f`` suffix
    for name in list_algorithms(include_apa=True):
        scaled = generate_c_source(get_algorithm(name), False, "float")
        literal = re.search(r"\d(f) \* p", scaled)
        if literal:
            mutant = scaled[:literal.start(1)] + scaled[literal.end(1):]
            assert "CEMIT-PARSE" in codes(mutant, get_algorithm(name), False)
            break
    else:  # pragma: no cover - the catalog always has one
        pytest.fail("no catalog unit scales a term")


def test_mutation_cemit_hint_and_strip_are_proven():
    """The vectoriser takes ``NODEP`` on trust and nothing but this pass
    reads the strip's addressing: a hinted loop whose target is one of its
    source rows, a strip that reads another block's rows or columns, runs
    outside the row loop, ahead of its store, twice or not at all -- each
    has its finding."""
    from repro.codegen.cbackend import generate_c_source

    alg = get_algorithm("strassen")
    src = generate_c_source(alg, False)

    def codes(mutant, algorithm=alg, cse=False):
        assert mutant != src
        return {f.code for f in cemit.verify_source(mutant, algorithm, cse,
                                                    where="mut")}

    # the target row read back by name ...
    assert "CEMIT-ALIAS" in codes(
        src.replace("pS0[j] = pA0[j] + pA3[j]", "pS0[j] = pS0[j] + pA3[j]"))
    # ... and through a second pointer to the same slab row: a chain that
    # reads a CSE definition, re-pointed at the definition's row
    s333 = get_algorithm("s333")
    unit = generate_c_source(s333, True)
    chain, definition = re.search(
        r"p(S\d+)\[j\] = [^;]*p(YA\d+)\[j\]", unit).groups()
    row = re.search(rf"double \*p{definition} = S \+ (\d+)\*blk", unit).group(1)
    alias = re.sub(rf"(double \*p{chain} = S \+ )\d+(\*blk)",
                   rf"\g<1>{row}\g<2>", unit)
    assert alias != unit
    assert "CEMIT-ALIAS" in codes(alias, s333, True)
    # the strip of block (0, 0) reading block row 1 of A12, column 1 of B21
    assert "CEMIT-BLOCK" in codes(src.replace(
        "A12[((size_t)(0*bp + i))*lda + t]",
        "A12[((size_t)(1*bp + i))*lda + t]", 1))
    assert "CEMIT-BLOCK" in codes(src.replace(
        "B21 + (size_t)t*ldb + (size_t)(0)*bq",
        "B21 + (size_t)t*ldb + (size_t)(1)*bq", 1))
    # the strip of pC0, cut out and pasted elsewhere
    lines = src.splitlines()
    at = lines.index("    for (long t = 0; t < dq; ++t) {")
    strip, rest = lines[at:at + 7], lines[:at] + lines[at + 7:]
    assert strip[-1] == "    }" and "pC0[j] += a * b[j];" in strip[-2]
    assert "CEMIT-CBLOCK" in codes("\n".join(rest))            # nowhere
    end = len(rest) - 1 - rest[::-1].index("  }")
    assert "CEMIT-RANGE" in codes(
        "\n".join(rest[:end + 1] + strip + rest[end + 1:]))    # after the rows
    assert "CEMIT-CBLOCK" in codes(
        "\n".join(rest[:at - 3] + strip + rest[at - 3:]))      # before its store
    assert "CEMIT-CBLOCK" in codes(
        "\n".join(lines[:at] + strip + lines[at:]))            # twice


def test_mutation_cemit_step_products_are_proven():
    """``fmm_step``: a vendor call scaled by anything but alpha = 1,
    beta = 0, a rank that reads another rank's operand or the wrong row
    stride, a home a later rank still reads, two products in one home, a
    dropped product, stale constants and a frame line gone missing --
    each has its finding."""
    from repro.codegen.cbackend import generate_c_source

    alg = get_algorithm("strassen")
    src = generate_c_source(alg, False)

    def codes(good, bad):
        mutant = src.replace(good, bad, 1)
        assert mutant != src
        return {f.code for f in cemit.verify_source(mutant, alg, False,
                                                    where="mut")}

    assert cemit.verify_source(src, alg, False) == []
    gemm = "x->gemm(101, 111, 111, M, N, K, 1, A, lda, B, ldb, 0, C, ldc);"
    for bad in (gemm.replace("K, 1,", "K, 2,"),
                gemm.replace("ldb, 0,", "ldb, 1,")):
        assert "CEMIT-GEMM" in codes(gemm, bad)
    assert "CEMIT-GEMM" in codes("steps - 1, S + 0 * sblk",
                                 "steps - 1, S + 1 * sblk")
    assert "CEMIT-GEMM" in codes("S + 1 * sblk, bq, B", "S + 1 * sblk, lda, B")
    # shape variant 3: rank 2 writes S row 1 (rank 1's, done) -- not row
    # 3, rank 5's, nor T row 0, rank 1's home; own rows count from 0, and
    # every rank has a home
    homes = "    {{2, 0}, {1, 0}, {0, 1}, {1, 1}, {1, 2}, {0, 2}, {1, 3}},"
    assert homes in src
    for bad in (homes.replace("{0, 1}", "{0, 3}"),
                homes.replace("{0, 1}", "{1, 0}"),
                homes.replace("{2, 0}", "{2, 1}"),
                homes.replace(", {1, 3}}", "}")):
        assert "CEMIT-GEMM" in codes(homes, bad), bad
    last = src.index("    if (fmm_step(x, steps - 1, S + 4")
    assert "CEMIT-GEMM" in codes(src[last:].split("\n", 1)[0] + "\n", "")
    assert "CEMIT-LAYOUT" in codes("S_ROWS = 5", "S_ROWS = 4")
    assert "CEMIT-PARSE" in codes("    if (BN * bn < r)\n", "")


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


def test_emission_contract_covers_all_strategies():
    # every Python strategy plus the C chain emitter's statement forms
    assert set(EMISSION_CONTRACT) == set(STRATEGIES) | {"cbackend"}
    # generated modules allocate; the arena-backed executor is the interpreter
    assert not any("ws." in form for s in STRATEGIES
                   for form in EMISSION_CONTRACT[s])
    assert "fused_store" in EMISSION_CONTRACT["cbackend"]


def test_scheme_metadata_in_generated_modules():
    src = _source("winograd", "streaming", True)
    ns: dict = {}
    exec(compile(src, "<gen>", "exec"), ns)  # noqa: S102 -- generated by us
    meta = ns["_SCHEME"]
    assert meta["algorithm"] == "winograd"
    assert meta["base_case"] == (2, 2, 2)
    assert meta["strategy"] == "streaming" and meta["cse"] is True
    assert meta["rank"] == ns["RANK"]
    assert re.fullmatch(r"[0-9a-f]{12,64}", meta["fingerprint"])


# ---------------------------------------------------------------- cli
def test_cli_analyze_selected_passes():
    rc, out = run_cli("analyze", "--catalog", "--concurrency")
    assert rc == 0
    assert "catalog" in out and "clean" in out


def test_cli_analyze_json_shape():
    rc, out = run_cli("analyze", "--symbolic", "--arena",
                      "-a", "strassen", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["analyzers"] == ["symbolic", "arena"]
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
