"""Code generation: [[U,V,W]] -> the tables one C library runs.

Mirrors the paper's Section 3: ``chains`` extracts the addition-chain IR,
``cse`` optionally eliminates repeated length-2 subexpressions, and
``cbackend`` builds each algorithm's descriptor from them and runs it on
the compiled library ``fmm.c``.  ``compile_algorithm`` is an algorithm's
sequential product as dispatch serves it: the compiled step, or the
interpreter (:mod:`repro.core.recursion`) where the step cannot run.
"""

from repro.codegen.cbackend import compile_algorithm
from repro.codegen.chains import Chain, ChainProgram, Term, extract_chains
from repro.codegen.cse import CseResult, eliminate, table3_row

__all__ = [
    "Chain",
    "ChainProgram",
    "Term",
    "extract_chains",
    "CseResult",
    "eliminate",
    "table3_row",
    "compile_algorithm",
]
