"""Engine equivalence: all four simulation tiers must agree.

The closure compiler (``repro.sim.compile``), the levelized cone tier
(``repro.sim.compile.level``), and the vectorized batch tier
(``repro.sim.batch``) must be observationally identical to the generator
interpreters they accelerate. These tests drive the same sources through
all tiers — the batch default, the levelized event kernel
(``REPRO_SIM_NO_BATCH=1``), the closure-only tier (``REPRO_SIM_NO_LEVEL=1``),
and the pure interpreter (``REPRO_SIM_INTERP=1``) — and require identical
results:

* a Hypothesis property over ``repro.qa.spec.generate_spec`` programs,
  comparing the full simulation observables in both languages;
* a directed forced-X stimulus that drives X onto a cone input
  mid-simulation, exercising the two-state→four-state fallback and the
  recovery back to the fast path;
* a replay of the seed corpus under the interpreter and closure tiers
  (the recorded verdicts were produced with the full compiled stack);
* a small fuzz campaign judged by all three engines, comparing every
  verdict and source hash.

The compared observables are the printed output, the rendered log (which
embeds the reported end time), the end time, the clean-finish flag, and
any runtime error — kernel statistics intentionally differ across tiers
(cone calls replace waiter wakeups) and are not part of the contract.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.qa.corpus import DEFAULT_CORPUS_DIR, replay_corpus
from repro.qa.fuzz import run_fuzz
from repro.qa.oracle import QaCase, case_sources
from repro.qa.spec import generate_spec

_TIER_FLAGS = (
    "REPRO_SIM_INTERP",
    "REPRO_SIM_NO_LEVEL",
    "REPRO_SIM_NO_BATCH",
)


@contextmanager
def _tier(**flags):
    """Pin the simulation tier for the duration of the block."""
    previous = {flag: os.environ.pop(flag, None) for flag in _TIER_FLAGS}
    os.environ.update(flags)
    try:
        yield
    finally:
        for flag, value in previous.items():
            if value is None:
                os.environ.pop(flag, None)
            else:
                os.environ[flag] = value


def interpreter_tier():
    """Force the pure-interpreter tier for the duration of the block."""
    return _tier(REPRO_SIM_INTERP="1", REPRO_SIM_NO_BATCH="1")


def closure_tier():
    """Force the closure tier (levelized cones disabled)."""
    return _tier(REPRO_SIM_NO_LEVEL="1", REPRO_SIM_NO_BATCH="1")


def levelized_tier():
    """Force the levelized event kernel with the batch recognizer off."""
    return _tier(REPRO_SIM_NO_BATCH="1")


def batch_tier():
    """The default stack: batch recognizer on."""
    return _tier()


def _observables(result):
    return (
        result.ok,
        tuple(result.output_lines),
        result.log,
        result.end_time,
        result.finished_cleanly,
        result.runtime_error,
    )


def _simulate_all_tiers(files, top):
    """One SimResult per tier, keyed by tier name."""
    results = {}
    for name, tier in (
        ("levelized", levelized_tier),
        ("closure", closure_tier),
        ("interp", interpreter_tier),
        ("batch", batch_tier),
    ):
        with tier():
            results[name] = Toolchain().simulate(files, top)
    return results


def _assert_tiers_agree(files, top, context):
    results = _simulate_all_tiers(files, top)
    reference = _observables(results["levelized"])
    for name in ("closure", "interp", "batch"):
        assert _observables(results[name]) == reference, (
            f"{context}: levelized vs {name} divergence"
        )
    return results["levelized"]


def _spec_files(spec, language):
    sources = case_sources(QaCase(spec=spec))
    testbench = make_testbench(
        spec.design_spec(), spec.model(), language, spec.name
    )
    ext = language.file_extension
    return [
        HdlFile(f"top_module{ext}", sources[language], language),
        HdlFile(f"tb{ext}", testbench, language),
    ]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    index=st.integers(min_value=0, max_value=7),
)
@settings(deadline=None)
def test_generated_specs_identical_across_tiers(seed, index):
    """Any generated program simulates identically on every tier."""
    spec = generate_spec(seed, index)
    for language in Language:
        files = _spec_files(spec, language)
        _assert_tiers_agree(
            files, "tb",
            f"{language.value} spec {spec.name} (seed={seed}, index={index})",
        )


X_FALLBACK_V = """
module xmod(input [7:0] a, input [7:0] b, output [7:0] y);
    wire [7:0] t = a ^ b;
    assign y = t + a;
endmodule
module tb;
    reg [7:0] a, b; wire [7:0] y;
    xmod dut(.a(a), .b(b), .y(y));
    initial begin
        a = 8'd3; b = 8'd5;
        #1 $display("known y=%b", y);
        a = 8'bxxxx0011;
        #1 $display("x-phase y=%b", y);
        a = 8'd7;
        #1 $display("recovered y=%b", y);
        $finish;
    end
endmodule
"""

X_FALLBACK_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity xmod is
    port (a : in unsigned(7 downto 0); b : in unsigned(7 downto 0);
          y : out unsigned(7 downto 0));
end entity;
architecture rtl of xmod is
    signal t : unsigned(7 downto 0);
begin
    t <= a xor b;
    y <= t + a;
end architecture;
entity tb is end entity;
architecture sim of tb is
    signal a : unsigned(7 downto 0) := x"03";
    signal b : unsigned(7 downto 0) := x"05";
    signal y : unsigned(7 downto 0);
begin
    dut: entity work.xmod port map (a => a, b => b, y => y);
    stim: process begin
        wait for 1 ns;
        assert y = x"09" report "bad known-phase y" severity error;
        a <= "XXXX0011";
        wait for 1 ns;
        assert not (y = x"09") report "x-phase y unexpectedly known"
            severity error;
        a <= x"07";
        wait for 1 ns;
        assert y = x"09" report "bad recovered y" severity error;
        report "All tests passed successfully!";
        wait;
    end process;
end architecture;
"""


def test_forced_x_fallback_identical_across_tiers():
    """X on a cone input mid-run demotes to four-state on every tier alike.

    The stimulus drives a known value (two-state fast path), then X bits
    (aggregated xmask test fails, the cone falls back to its Logic-based
    closure bodies for that evaluation), then a known value again (the
    fast path resumes). All three tiers must print the same x-propagated
    bits and the same recovery.
    """
    files = [HdlFile("x.v", X_FALLBACK_V, Language.VERILOG)]
    result = _assert_tiers_agree(files, "tb", "verilog forced-X")
    assert any("x-phase" in line and "x" in line.split("=")[-1]
               for line in result.output_lines), result.output_lines
    assert "recovered y=00001001" in "\n".join(result.output_lines)

    files = [HdlFile("x.vhd", X_FALLBACK_VHD, Language.VHDL)]
    result = _assert_tiers_agree(files, "tb", "vhdl forced-X")
    assert result.ok, result.log
    assert any("All tests passed" in line for line in result.output_lines)


def test_corpus_verdicts_hold_under_every_tier():
    """The seed corpus replays clean on the interpreter and closure tiers.

    The recorded failure classes were produced by the full compiled stack;
    the demoted tiers must classify every case the same way, including the
    defect-injected entries that exercise crash and mismatch paths.
    """
    for tier in (
        interpreter_tier,
        closure_tier,
        levelized_tier,
        batch_tier,
    ):
        with tier():
            outcomes = replay_corpus(DEFAULT_CORPUS_DIR)
        assert outcomes, "seed corpus is empty"
        mismatched = [o for o in outcomes if not o.matched]
        assert not mismatched, f"{tier.__name__}:\n" + "\n".join(
            f"{o.name}: expected {o.expected.value}, got {o.actual.value}"
            for o in mismatched
        )


def test_fuzz_verdicts_identical_across_tiers():
    """A fuzz campaign produces identical verdicts on every tier."""
    with levelized_tier():
        report_levelized = run_fuzz(seed=20260806, count=6)
    with closure_tier():
        report_closure = run_fuzz(seed=20260806, count=6)
    with interpreter_tier():
        report_interp = run_fuzz(seed=20260806, count=6)
    with batch_tier():
        report_batch = run_fuzz(seed=20260806, count=6)

    def digest(report):
        return [
            (r.index, r.name, r.failure_class, r.verilog_sha, r.vhdl_sha)
            for r in report.results
        ]

    assert digest(report_levelized) == digest(report_closure)
    assert digest(report_levelized) == digest(report_interp)
    assert digest(report_levelized) == digest(report_batch)
    assert report_levelized.class_counts == report_interp.class_counts
    assert report_levelized.class_counts == report_closure.class_counts
    assert report_levelized.class_counts == report_batch.class_counts
