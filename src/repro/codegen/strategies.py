"""Lowering addition chains to numpy code for the three strategies (Sec 3.2).

The paper's three matrix-addition variants map onto numpy as follows (the
absolute constants differ from hand-written C, but the traffic ordering the
paper analyzes is preserved -- see EXPERIMENTS.md):

- ``pairwise``   -- one binary operation per chain term, each producing a
  fresh array (the daxpy-per-pair evaluation: ~2 reads + 1 write per term,
  plus allocation overhead).
- ``write_once`` -- a preallocated destination updated in place: one output
  buffer per chain, every source read once, no intermediate allocations.
- ``streaming``  -- the whole side at once: stack the input's blocks (one
  read of A resp. B), then form *all* temporaries in a single BLAS pass;
  needs R-times temporary memory, exactly the trade-off of Section 3.2.

Chain emission returns plain source lines; the generator assembles them
into a module.
"""

from __future__ import annotations

from repro.codegen.chains import Chain

STRATEGIES = ("pairwise", "write_once", "streaming")

#: The statement vocabulary each strategy is allowed to emit.  The symbolic
#: verifier (``repro.analyze.symbolic``) interprets exactly these forms; any
#: new emission shape must be added here *and* taught to the interpreter, so
#: a drift between generator and verifier fails loudly instead of silently
#: skipping statements.
EMISSION_CONTRACT = {
    "pairwise": (
        "copy", "unary_neg", "scale", "binop_add", "binop_sub",
        "alias", "view_store",
    ),
    "write_once": (
        "np.empty", "np.copyto", "np.negative", "np.multiply",
        "np.add", "np.subtract", "runtime.axpy", "alias", "view_store",
    ),
    "streaming": (
        "runtime.streaming_combine", "runtime.streaming_output",
    ),
    # Not a Python lowering strategy: the statement forms the C chain
    # emitter (``repro.codegen.cbackend``) may produce inside its fused
    # form_S/form_T/form_C kernels.  The C-side verifier
    # (``repro.analyze.cemit``) parses exactly these shapes back into
    # coefficient tables, so emitter drift fails the same way Python-side
    # drift does.
    "cbackend": (
        "block_ptr", "slab_ptr", "product_ptr", "scratch_ptr",
        "output_ptr", "fused_store", "nodep_hint",
        "strip_loop", "strip_coeff", "strip_row", "strip_update",
    ),
}


def _c(x: float) -> str:
    """Literal for a coefficient with full double precision."""
    return repr(float(x))


def emit_pairwise(chain: Chain, out_shape: str | None = None,
                  into_view: str | None = None) -> list[str]:
    """Pairwise lowering; ``into_view`` writes the final value into an
    existing view (used for C blocks) after accumulating in a temporary."""
    t0 = chain.terms[0]
    name = chain.target if into_view is None else f"_t{chain.target}"
    lines = []
    if len(chain.terms) == 1 and into_view is not None:
        if t0.coeff == 1.0:
            lines.append(f"{into_view}[:] = {t0.source}")
        else:
            lines.append(f"np.multiply({t0.source}, {_c(t0.coeff)}, out={into_view})")
        return lines
    if t0.coeff == 1.0:
        first = f"{t0.source}.copy()" if len(chain.terms) > 1 else t0.source
    elif t0.coeff == -1.0:
        first = f"-{t0.source}"
    else:
        first = f"{_c(t0.coeff)} * {t0.source}"
    lines.append(f"{name} = {first}")
    for t in chain.terms[1:]:
        if t.coeff == 1.0:
            lines.append(f"{name} = {name} + {t.source}")
        elif t.coeff == -1.0:
            lines.append(f"{name} = {name} - {t.source}")
        else:
            lines.append(f"{name} = {name} + {_c(t.coeff)} * {t.source}")
    if into_view is not None:
        lines.append(f"{into_view}[:] = {name}")
    return lines


def emit_write_once(chain: Chain, out_shape: str,
                    into_view: str | None = None) -> list[str]:
    """Write-once lowering: preallocated destination, in-place updates."""
    t0 = chain.terms[0]
    lines = []
    if into_view is not None:
        name = into_view
    else:
        name = chain.target
        if len(chain.terms) == 1 and t0.coeff == 1.0:
            return [f"{name} = {t0.source}"]  # pure alias, no traffic
        lines.append(f"{name} = np.empty({out_shape}, _dt)")
    if t0.coeff == 1.0:
        lines.append(f"np.copyto({name}, {t0.source})")
    elif t0.coeff == -1.0:
        lines.append(f"np.negative({t0.source}, out={name})")
    else:
        lines.append(f"np.multiply({t0.source}, {_c(t0.coeff)}, out={name})")
    for t in chain.terms[1:]:
        if t.coeff == 1.0:
            lines.append(f"np.add({name}, {t.source}, out={name})")
        elif t.coeff == -1.0:
            lines.append(f"np.subtract({name}, {t.source}, out={name})")
        else:
            lines.append(f"runtime.axpy({name}, {t.source}, {_c(t.coeff)})")
    return lines


def emit_chain(chain: Chain, strategy: str, out_shape: str,
               into_view: str | None = None) -> list[str]:
    if strategy == "pairwise":
        return emit_pairwise(chain, out_shape, into_view)
    if strategy == "write_once":
        return emit_write_once(chain, out_shape, into_view)
    raise ValueError(
        f"emit_chain handles pairwise/write_once, not {strategy!r} "
        "(streaming is lowered to runtime.streaming_* calls)"
    )
