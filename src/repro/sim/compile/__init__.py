"""Compile-at-elaboration tier: HDL ASTs → Python closures.

The interpreters in :mod:`repro.sim.elab_verilog` / :mod:`repro.sim.elab_vhdl`
re-walk expression trees with ``isinstance`` dispatch on every process
activation. This package lowers already-elaborated expressions and statement
bodies into plain Python closures *once*, at elaboration time: identifier
lookups, context widths, operator dispatch, and select bounds are all
resolved statically, so each kernel activation runs straight-line closure
calls instead of a recursive tree walk.

The contract with the interpreters is strict observational equivalence:

* a construct the compiler cannot lower statically (or whose diagnostics the
  interpreter emits at *runtime*) falls back, per expression or statement, to
  a closure that delegates to the interpreter — never changing what is
  reported or when;
* compilation itself never emits diagnostics and never raises out of the
  elaborator (integration sites snapshot the collector and revert to the
  interpreter on any compile-time surprise);
* ``REPRO_SIM_INTERP=1`` disables the tier globally, which is how the
  differential tests drive both engines over the same designs.

On top of the closure tier sits the *levelized* tier (:mod:`.level` +
:mod:`.twostate`): static combinational cones are topologically sorted at
elaboration and emitted as straight-line generated Python, with a two-state
masked-int fast path while no X/Z is live on the cone's inputs. The fourth
tier (:mod:`repro.sim.batch` + :mod:`.vector`) re-lowers the same cone
emits into one masked-int loop across the stimulus axis. Three env flags
select the tier; each also turns off every tier stacked on the one it
disables:

* ``REPRO_SIM_INTERP=1`` forces the pure interpreter;
* ``REPRO_SIM_NO_LEVEL=1`` disables cone formation (closure tier only);
* ``REPRO_SIM_NO_BATCH=1`` disables batched stimulus evaluation.
"""

from __future__ import annotations

import os


def interpreter_forced() -> bool:
    """True when ``REPRO_SIM_INTERP`` requests the pure interpreter tier."""
    return os.environ.get("REPRO_SIM_INTERP", "0") not in ("", "0")


def level_disabled() -> bool:
    """True when ``REPRO_SIM_NO_LEVEL`` turns off the levelized cone tier."""
    return os.environ.get("REPRO_SIM_NO_LEVEL", "0") not in ("", "0")


def batch_disabled() -> bool:
    """True when ``REPRO_SIM_NO_BATCH`` turns off the batch stimulus tier."""
    return os.environ.get("REPRO_SIM_NO_BATCH", "0") not in ("", "0")

