"""Tests for the native-C chain backend (``repro.codegen.cbackend``).

The C backend must agree with the Python interpreter and the classical
product for every algorithm, strategy-equivalent configuration, recursion
depth and awkward (peeled) shape — it is the same algorithm, only the
addition chains run as fused compiled loops.
"""

import re

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.codegen import cbackend, compile_algorithm
from repro.core.recursion import multiply as multiply_reference

pytestmark = pytest.mark.skipif(
    not cbackend.available(), reason="no working C compiler on this machine"
)

RNG = np.random.default_rng(33)
ALGOS = ["strassen", "winograd", "hk223", "hk224", "s233", "s333", "s424"]


def _rand(p, q):
    return RNG.standard_normal((p, q))


# ----------------------------------------------------------- source level
class TestSourceGeneration:
    def test_source_compiles_and_exports(self):
        cc = cbackend.compile_chains("strassen")
        for fn in ("form_S", "form_T", "form_C"):
            assert hasattr(cc.lib, fn)

    def test_source_is_deterministic(self):
        alg = get_algorithm("strassen")
        assert (cbackend.generate_c_source(alg)
                == cbackend.generate_c_source(alg))

    def test_source_mentions_algorithm(self):
        alg = get_algorithm("s424")
        src = cbackend.generate_c_source(alg)
        assert "<4,2,4>" in src and "rank 26" in src

    def test_unit_coefficients_have_no_multiply(self):
        # Strassen is all +-1: the emitted chain arithmetic (the `[j] = ...`
        # assignment lines) must be pure add/subtract, no scalar multiplies
        src = cbackend.generate_c_source(get_algorithm("strassen"))
        rhs_lines = [ln.split("=", 1)[1] for ln in src.splitlines()
                     if "[j] =" in ln]
        assert rhs_lines, "no chain assignments emitted"
        assert all("*" not in rhs for rhs in rhs_lines)

    def test_cse_reduces_loop_count_or_matches(self):
        alg = get_algorithm("s333")
        plain = cbackend.generate_c_source(alg, cse=False)
        with_cse = cbackend.generate_c_source(alg, cse=True)
        # CSE introduces definition buffers: slab rows must not shrink
        assert "defs first: 0/0" in plain
        assert "defs first: 0/0" not in with_cse

    def test_compile_cache_reuses_library(self):
        a = cbackend.compile_chains("strassen")
        b = cbackend.compile_chains("strassen")
        assert a is b  # lru-cached wrapper

    def test_source_cache_by_content(self):
        alg = get_algorithm("strassen")
        lib1 = cbackend._compile_source(cbackend.generate_c_source(alg))
        lib2 = cbackend._compile_source(cbackend.generate_c_source(alg))
        assert lib1 is lib2


def _is_gcc() -> bool:
    import subprocess

    try:
        ver = subprocess.run([cbackend._CC, "--version"],
                             capture_output=True, text=True).stdout
    except OSError:     # no compiler at all: the module is skipped anyway
        return False
    return "Free Software Foundation" in ver


@pytest.mark.skipif(not _is_gcc(), reason="REPRO_CC is not gcc")
@pytest.mark.parametrize("name,cse", [("strassen", False), ("s424", False),
                                      ("s333", True)])
def test_every_emitted_j_loop_vectorises(name, cse, tmp_path):
    """The non-gemm time of a compiled step is bandwidth-bound only while
    every chain loop runs SIMD.  Past ten pointer pairs gcc gives up on
    run-time alias checks and -- without the emitted no-dependence hint --
    leaves the dense entries' ``form_C`` scalar (``s424``: 26 terms a
    chain, 3x slower).  gcc's own report must say "vectorized" of every
    ``j`` loop and "missed" of none; the ``i`` and ``t`` loops around them
    it may decline, they are not meant to vectorise."""
    import subprocess

    src = cbackend.generate_c_source(get_algorithm(name), cse=cse)
    unit = tmp_path / "unit.c"
    unit.write_text(src)
    proc = subprocess.run(
        [cbackend._CC, *cbackend._CFLAGS, "-fopt-info-vec-optimized-missed",
         "-o", str(tmp_path / "unit.so"), str(unit)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = {kind: {int(ln) for ln in re.findall(
        rf"unit\.c:(\d+):\d+: {kind}:", proc.stderr)}
        for kind in ("optimized", "missed")}
    j_loops = {ln for ln, text in enumerate(src.splitlines(), start=1)
               if text.strip() == "for (long j = 0; j < bq; ++j)"}
    assert j_loops and report["missed"], "emission or report format moved"
    assert j_loops <= report["optimized"]
    assert not j_loops & report["missed"]


# ------------------------------------------------------------ correctness
class TestCorrectness:
    @pytest.mark.parametrize("name", ALGOS)
    def test_exact_one_step(self, name):
        alg = get_algorithm(name)
        m, k, n = alg.base_case
        A, B = _rand(8 * m, 8 * k), _rand(8 * k, 8 * n)
        C = cbackend.multiply(A, B, name, steps=1)
        np.testing.assert_allclose(C, A @ B, rtol=0, atol=1e-10 * np.abs(A @ B).max())

    @pytest.mark.parametrize("name", ["strassen", "s333", "s424"])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_depths(self, name, steps):
        alg = get_algorithm(name)
        m, k, n = alg.base_case
        s = max(m, k, n) ** steps
        A, B = _rand(2 * s, s), _rand(s, 3 * s)
        C = cbackend.multiply(A, B, name, steps=steps)
        np.testing.assert_allclose(C, A @ B, atol=1e-9)

    @pytest.mark.parametrize("name", ["strassen", "s333", "hk223"])
    def test_cse_variant_agrees_with_plain(self, name):
        alg = get_algorithm(name)
        m, k, n = alg.base_case
        A, B = _rand(12 * m, 12 * k), _rand(12 * k, 12 * n)
        plain = cbackend.multiply(A, B, name, steps=1, cse=False)
        fused = cbackend.multiply(A, B, name, steps=1, cse=True)
        np.testing.assert_allclose(plain, fused, atol=1e-11)

    def test_matches_interpreter_and_codegen(self):
        alg = get_algorithm("s424")
        A, B = _rand(160, 80), _rand(80, 160)
        ref = multiply_reference(A, B, alg, steps=2)
        gen = compile_algorithm(alg)(A, B, steps=2)
        nat = cbackend.multiply(A, B, "s424", steps=2)
        np.testing.assert_allclose(nat, ref, atol=1e-10)
        np.testing.assert_allclose(nat, gen, atol=1e-10)

    def test_small_matrix_falls_back_to_dot(self):
        A, B = _rand(1, 1), _rand(1, 1)
        C = cbackend.multiply(A, B, "strassen", steps=1)
        np.testing.assert_allclose(C, A @ B)

    def test_accepts_fortran_and_integer_input(self):
        A = np.asfortranarray(RNG.integers(0, 5, (32, 32)))
        B = RNG.integers(0, 5, (32, 32))
        C = cbackend.multiply(A, B, "strassen", steps=1)
        np.testing.assert_allclose(C, A @ B)

    def test_only_what_the_kernels_cannot_address_is_packed(self):
        """The kernels take a row stride, so row-strided operands and the
        alias (block-view) operands of every rank go in as they are: the
        arena has no packing slots and must not miss them.  Strided or
        reversed columns are packed once on entry (into the heap here --
        that copy is the caller's layout, not the plan's footprint)."""
        from repro.core.workspace import Workspace, cbackend_footprint

        cc = cbackend.compile_chains("strassen")
        A, B = _rand(90, 70), _rand(70, 110)
        wide = np.zeros((90, 75))
        wide[:, 3:73] = A
        ws = Workspace(cbackend_footprint(cc.algorithm, False, (90, 70, 110),
                                          steps=2))
        ref = cc.multiply(A, B, steps=2)
        for Av, Bv in ((wide[:, 3:73], B), (A[::1], np.repeat(B, 2, 0)[::2])):
            assert cbackend.kernel_ready(Av) and cbackend.kernel_ready(Bv)
            C = cc.multiply(Av, Bv, steps=2, workspace=ws)
            assert np.array_equal(C, ref)
            assert ws.overflow_allocations == 0
        for Av, Bv in ((A[:, ::-1], B[::-1]), (np.asfortranarray(A), B)):
            assert not cbackend.kernel_ready(Av)
            np.testing.assert_allclose(cc.multiply(Av, Bv, steps=2),
                                       Av @ Bv, atol=1e-10)

    def test_out_of_any_layout(self):
        """``out`` is written in place when the kernels can address it and
        through a packed product otherwise -- a column-major ``out`` used
        to be written with its column stride taken for a row stride."""
        cc = cbackend.compile_chains("strassen")
        A, B = _rand(33, 40), _rand(40, 37)
        for out in (np.empty((33, 37)), np.empty((33, 50))[:, 5:42],
                    np.empty((37, 33)).T, np.empty((33, 37))[::-1, ::-1]):
            out[:] = np.nan
            assert cc.multiply(A, B, steps=2, out=out) is out
            np.testing.assert_allclose(out, A @ B, atol=1e-10)

    def test_explicit_algorithm_object(self):
        alg = get_algorithm("winograd")
        cc = cbackend.CompiledChains(alg)
        A, B = _rand(64, 64), _rand(64, 64)
        np.testing.assert_allclose(cc(A, B, steps=2), A @ B, atol=1e-10)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            cbackend.multiply(_rand(4, 5), _rand(6, 4), "strassen")


# ------------------------------------------------------------------ dtypes
class TestDtypeContract:
    """The kernels are float64-only; the driver must return
    ``np.result_type(A, B)`` (never a silent upcast) and reject result
    dtypes double cannot represent."""

    def test_float32_in_float32_out(self):
        A = _rand(48, 48).astype(np.float32)
        B = _rand(48, 48).astype(np.float32)
        C = cbackend.multiply(A, B, "strassen", steps=2)
        assert C.dtype == np.float32
        np.testing.assert_allclose(C, A @ B, rtol=1e-4, atol=1e-4)

    def test_mixed_precision_promotes(self):
        A = _rand(32, 32).astype(np.float32)
        B = _rand(32, 32)  # float64
        C = cbackend.multiply(A, B, "strassen", steps=1)
        assert C.dtype == np.float64

    def test_integer_inputs_return_integer_result_type(self):
        A = RNG.integers(0, 5, (32, 32))
        B = RNG.integers(0, 5, (32, 32))
        C = cbackend.multiply(A, B, "strassen", steps=1)
        assert C.dtype == np.result_type(A, B)
        np.testing.assert_array_equal(C, A @ B)

    def test_big_integer_product_raises_instead_of_rounding(self):
        # products past 2^53 cannot round-trip through the float64 kernels:
        # casting back would silently truncate (or wrap to INT64_MIN)
        A = np.full((4, 4), 2**31 - 1, dtype=np.int64)
        B = np.full((4, 4), 2**31 - 3, dtype=np.int64)
        with pytest.raises(ValueError, match="2\\^53"):
            cbackend.multiply(A, B, "strassen", steps=1)

    def test_intermediate_overflow_raises_even_when_result_fits(self):
        # entries ~2^22 at n=64, steps=2: every exact product entry fits in
        # 2^53, but Strassen's intermediate (A11+A22)@(B11+B22) sums do not
        # -- the a-priori growth bound must reject this a posteriori-clean-
        # looking case instead of returning integers quietly off by a few
        A = np.full((64, 64), 2**22, dtype=np.int64)
        B = np.full((64, 64), 2**22, dtype=np.int64)
        assert (A.astype(object) @ B.astype(object)).max() < 2**53
        with pytest.raises(ValueError, match="intermediates"):
            cbackend.multiply(A, B, "strassen", steps=2)

    def test_complex_routed_away_loudly(self):
        A = _rand(8, 8) + 1j * _rand(8, 8)
        with pytest.raises(ValueError, match="float64"):
            cbackend.multiply(A, A, "strassen", steps=1)

    @pytest.mark.skipif(not hasattr(np, "longdouble")
                        or np.dtype(np.longdouble).itemsize <= 8,
                        reason="no extended-precision longdouble here")
    def test_extended_precision_routed_away_loudly(self):
        A = _rand(8, 8).astype(np.longdouble)
        with pytest.raises(ValueError, match="float64"):
            cbackend.multiply(A, A, "strassen", steps=1)


# ---------------------------------------------------------------- aliases
class TestAliasHandling:
    def test_aliased_chains_are_views_not_copies(self):
        # Strassen has S3=A11, S4=A22, T2=B11, T5=B22: the slab must hold
        # strictly fewer rows than the rank
        cc = cbackend.compile_chains("strassen")
        assert cc._s["slots"] < cc.algorithm.rank
        assert cc._t["slots"] < cc.algorithm.rank
        aliases = [lay for lay in cc._s["layout"] if lay[0] == "alias"]
        assert len(aliases) >= 2

    def test_slab_layout_consistent_with_source(self):
        cc = cbackend.compile_chains("strassen")
        assert f"S={cc._s['slots']}" in cc.source
        assert f"T={cc._t['slots']}" in cc.source


class TestCompilerGating:
    def test_available_is_cached_bool(self):
        assert isinstance(cbackend.available(), bool)

    def test_missing_compiler_raises_cleanly(self, monkeypatch):
        monkeypatch.setattr(cbackend, "available", lambda: False)
        with pytest.raises(RuntimeError, match="no working C compiler"):
            cbackend.compile_chains("strassen")
