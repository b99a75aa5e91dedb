"""Vector re-lowering of two-state cone bodies: the batch tier's codegen.

The scalar emits produced for the levelized tier (:mod:`.twostate`) are
Python expression strings over masked int locals — one evaluation per
stimulus vector. This module embeds those same strings verbatim in one
generated loop over the *vector axis*: every binding arrives as a column
(a list of ints, one per stimulus vector), the loop body assigns each cone
member in topological order, and every result leaves as a column again.

The body computes with unbounded Python ints and masks each assignment to
its target width, exactly as the levelized cone body does, so it is exact
at every width by construction — it *is* the scalar semantics, run N times
in one frame instead of across N kernel time steps.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.compile.level import compile_source


def _loop_source(bindings, assigns, results) -> str:
    lines = ["def _run(_e, _n):"]
    for var, _width in bindings:
        lines.append(f"    _in_{var} = _e[{var!r}]")
    for var, _width in results:
        lines.append(f"    _out_{var} = [0] * _n")
    lines.append("    for _k in range(_n):")
    for var, _width in bindings:
        lines.append(f"        {var} = _in_{var}[_k]")
    result_vars = {var for var, _width in results}
    for var, width, src, src_width in assigns:
        if src_width > width:
            src = f"({src} & {(1 << width) - 1})"
        lines.append(f"        {var} = {src}")
        if var in result_vars:
            lines.append(f"        _out_{var}[_k] = {var}")
    if not assigns:
        lines.append("        pass")
    lines.append(
        f"    return {{{', '.join(f'{var!r}: _out_{var}' for var, _w in results)}}}"
    )
    lines.append("")
    return "\n".join(lines)


def build_program(
    bindings: list[tuple[str, int]],
    assigns: list[tuple[str, int, str, int]],
    results: list[tuple[str, int]],
) -> Callable | None:
    """Compile a batch body from scalar emit sources.

    *bindings* are the input columns ``(var, width)``; *assigns* are the
    ordered member lowerings ``(var, target_width, scalar_source,
    emitted_width)``; *results* name the assigned columns to return. The
    compiled program maps ``(columns, n)`` — ``{var: [int] * n}`` for every
    binding — to ``{var: [int] * n}`` for every result. Returns None only
    when the generated source fails to compile (malformed emit).
    """
    try:
        return compile_source(_loop_source(bindings, assigns, results), "_run")
    except Exception:
        return None
