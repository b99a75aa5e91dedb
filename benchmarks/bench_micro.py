"""Micro-benchmarks of the substrate: frontends, simulator, toolchain.

These track the cost of the pieces everything else is built on — useful for
spotting regressions when extending the language subsets.

``test_sim_tier_speedup`` additionally writes ``BENCH_sim.json`` (best-of-20
timings for all four simulation tiers — interpreter, closure, levelized,
batch — in both languages) and gates on each tier staying measurably faster
than the one below it: closure over interpreter, levelized over closure on
the combinational designs, and batch over levelized on the 512-vector
generated-testbench designs; CI uploads the JSON as an artifact. The report
defaults to ``benchmarks/BENCH_sim.json`` (next to this file, not the CWD);
``BENCH_SIM_JSON`` overrides the path but must stay inside ``benchmarks/``.
"""

import json
import os
import random
import time
from pathlib import Path

from repro.designs.model import CombModel, DesignSpec, PortSpec
from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.evalsuite.suite import build_suite
from repro.llm.profiles import CLAUDE_35_SONNET
from repro.llm.synthetic import build_defect_plan
from repro.verilog.parser import parse_verilog
from repro.vhdl.parser import parse_vhdl

COUNTER_V = """
module counter #(parameter WIDTH = 8) (
    input clk, input rst, input en,
    output reg [WIDTH-1:0] count
);
    always @(posedge clk) begin
        if (rst) count <= 0;
        else if (en) count <= count + 1;
    end
endmodule
"""

TB_V = """
module tb;
    reg clk, rst, en; wire [7:0] count;
    counter dut(.clk(clk), .rst(rst), .en(en), .count(count));
    initial begin
        clk = 0; rst = 1; en = 0;
        repeat (2) begin #5 clk = 1; #5 clk = 0; end
        rst = 0; en = 1;
        repeat (200) begin #5 clk = 1; #5 clk = 0; end
        if (count == 8'd200) $display("All tests passed successfully!");
        $finish;
    end
endmodule
"""

COUNTER_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity counter is
    port (clk : in std_logic; rst : in std_logic; en : in std_logic;
          count : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of counter is
    signal cnt : unsigned(7 downto 0);
begin
    process(clk) begin
        if rising_edge(clk) then
            if rst = '1' then cnt <= (others => '0');
            elsif en = '1' then cnt <= cnt + 1; end if;
        end if;
    end process;
    count <= std_logic_vector(cnt);
end architecture;
"""


TB_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
    signal clk : std_logic := '0';
    signal rst : std_logic := '1';
    signal en : std_logic := '0';
    signal count : std_logic_vector(7 downto 0);
begin
    dut: entity work.counter port map (
        clk => clk, rst => rst, en => en, count => count);
    stim: process begin
        for i in 0 to 1 loop
            wait for 5 ns;
            clk <= '1';
            wait for 5 ns;
            clk <= '0';
        end loop;
        rst <= '0';
        en <= '1';
        for i in 0 to 199 loop
            wait for 5 ns;
            clk <= '1';
            wait for 5 ns;
            clk <= '0';
        end loop;
        wait for 1 ns;
        if unsigned(count) = 200 then
            report "All tests passed successfully!";
        end if;
        wait;
    end process;
end architecture;
"""


COMB_V = """
module comb(input [15:0] a, input [15:0] b, output [15:0] y);
    wire [15:0] t0 = a ^ b;
    wire [15:0] t1 = t0 + a;
    wire [15:0] t2 = t1 & 16'hBEEF;
    wire [15:0] t3 = (t2 << 1) ^ t1;
    wire [15:0] t4 = t3 | (t0 >> 2);
    wire [15:0] t5 = t4 + t2;
    wire [15:0] t6 = t5 ^ 16'h5A5A;
    wire [15:0] t7 = (t6 & t3) + t4;
    wire [15:0] t8 = t7 ^ (t5 << 3);
    wire [15:0] t9 = t8 + t6;
    wire [15:0] t10 = (t9 >> 1) ^ t7;
    wire [15:0] t11 = t10 + t8;
    assign y = t11 ^ t9;
endmodule
"""

TB_COMB_V = """
module tb;
    reg [15:0] a, b; reg [15:0] acc; wire [15:0] y;
    comb dut(.a(a), .b(b), .y(y));
    initial begin
        a = 16'h0001; b = 16'h1234; acc = 0;
        repeat (200) begin
            #1 a = a + 16'h2357;
            acc = acc ^ y;
        end
        if (acc == 16'haf00) $display("All tests passed successfully!");
        $finish;
    end
endmodule
"""

COMB_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity comb is
    port (a : in unsigned(15 downto 0);
          b : in unsigned(15 downto 0);
          y : out unsigned(15 downto 0));
end entity;
architecture rtl of comb is
    signal t0, t1, t2, t3, t4, t5 : unsigned(15 downto 0);
    signal t6, t7, t8, t9, t10, t11 : unsigned(15 downto 0);
begin
    t0 <= a xor b;
    t1 <= t0 + a;
    t2 <= t1 and x"BEEF";
    t3 <= shift_left(t2, 1) xor t1;
    t4 <= t3 or shift_right(t0, 2);
    t5 <= t4 + t2;
    t6 <= t5 xor x"5A5A";
    t7 <= (t6 and t3) + t4;
    t8 <= t7 xor shift_left(t5, 3);
    t9 <= t8 + t6;
    t10 <= shift_right(t9, 1) xor t7;
    t11 <= t10 + t8;
    y <= t11 xor t9;
end architecture;
"""

TB_COMB_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
    signal a : unsigned(15 downto 0) := x"0001";
    signal b : unsigned(15 downto 0) := x"1234";
    signal y : unsigned(15 downto 0);
    signal acc : unsigned(15 downto 0) := (others => '0');
begin
    dut: entity work.comb port map (a => a, b => b, y => y);
    stim: process begin
        for i in 0 to 199 loop
            wait for 1 ns;
            a <= a + x"2357";
            acc <= acc xor y;
        end loop;
        wait for 1 ns;
        if acc = x"af00" then
            report "All tests passed successfully!";
        end if;
        wait;
    end process;
end architecture;
"""


#: the comb chain again, but as ``top_module`` with a generated 512-vector
#: testbench so the batch tier's bundle recognizer engages
BATCH_COMB_V = COMB_V.replace("module comb(", "module top_module(")

BATCH_COMB_VHD = COMB_VHD.replace("entity comb is", "entity top_module is").replace(
    "architecture rtl of comb is", "architecture rtl of top_module is"
)

_BATCH_MASK = (1 << 16) - 1


def _chain(vector):
    """Python mirror of the 12-stage comb chain (mod 2**16)."""
    a, b = vector["a"], vector["b"]
    t0 = a ^ b
    t1 = (t0 + a) & _BATCH_MASK
    t2 = t1 & 0xBEEF
    t3 = ((t2 << 1) ^ t1) & _BATCH_MASK
    t4 = t3 | (t0 >> 2)
    t5 = (t4 + t2) & _BATCH_MASK
    t6 = t5 ^ 0x5A5A
    t7 = ((t6 & t3) + t4) & _BATCH_MASK
    t8 = (t7 ^ (t5 << 3)) & _BATCH_MASK
    t9 = (t8 + t6) & _BATCH_MASK
    t10 = (t9 >> 1) ^ t7
    t11 = (t10 + t8) & _BATCH_MASK
    return {"y": t11 ^ t9}


def _batch_files(language):
    """DUT + generated 512-vector testbench for the batch micro-benchmark."""
    spec = DesignSpec(
        name="batchcomb",
        ports=(
            PortSpec("a", 16, "in"),
            PortSpec("b", 16, "in"),
            PortSpec("y", 16, "out"),
        ),
        clocked=False,
    )
    rng = random.Random(20260809)
    vectors = [
        {"a": rng.getrandbits(16), "b": rng.getrandbits(16)}
        for _ in range(512)
    ]
    tb = make_testbench(
        spec, CombModel(_chain), language, "batchcomb", vectors=vectors
    )
    dut = BATCH_COMB_V if language is Language.VERILOG else BATCH_COMB_VHD
    ext = language.file_extension
    return [
        HdlFile(f"top_module{ext}", dut, language),
        HdlFile(f"tb{ext}", tb, language),
    ]


def test_parse_verilog_module(benchmark):
    unit, collector = benchmark(parse_verilog, COUNTER_V)
    assert not collector.has_errors


def test_parse_vhdl_entity(benchmark):
    design, collector = benchmark(parse_vhdl, COUNTER_VHD)
    assert not collector.has_errors


def test_compile_verilog(benchmark):
    toolchain = Toolchain()
    files = [HdlFile("c.v", COUNTER_V + TB_V, Language.VERILOG)]
    result = benchmark(toolchain.compile, files, "tb")
    assert result.ok


def test_simulate_200_cycles(benchmark):
    toolchain = Toolchain()
    files = [HdlFile("c.v", COUNTER_V + TB_V, Language.VERILOG)]
    result = benchmark(toolchain.simulate, files, "tb")
    assert result.ok
    assert any("All tests passed" in l for l in result.output_lines)


def test_build_suite_cached(benchmark):
    suite = benchmark(build_suite)
    assert len(suite) == 156


def test_build_defect_plan(benchmark, full_suite):
    plans = benchmark(
        build_defect_plan, CLAUDE_35_SONNET, Language.VERILOG, full_suite
    )
    assert len(plans) == 156


#: env flags that select a simulation tier; _best_ms owns all of them for
#: the duration of a measurement so ambient settings can't skew a tier
_TIER_FLAGS = (
    "REPRO_SIM_INTERP",
    "REPRO_SIM_NO_LEVEL",
    "REPRO_SIM_NO_BATCH",
)

#: flag values that pin each measured tier. The three event-driven tiers
#: disable the batch recognizer so generated testbenches measure the kernel.
_TIERS = {
    "interp": {"REPRO_SIM_INTERP": "1", "REPRO_SIM_NO_BATCH": "1"},
    "closure": {"REPRO_SIM_NO_LEVEL": "1", "REPRO_SIM_NO_BATCH": "1"},
    "levelized": {"REPRO_SIM_NO_BATCH": "1"},
    "batch": {},
}


def _best_ms(files, top, *, tier, reps=20):
    """Best-of-*reps* wall time of one simulate() call, in milliseconds.

    A fresh Toolchain per tier keeps result caching out of the picture; one
    warm-up call absorbs the parse/analysis memo fill so the measurement is
    the elaborate+simulate cost the sweeps actually pay per run.
    """
    previous = {flag: os.environ.pop(flag, None) for flag in _TIER_FLAGS}
    try:
        os.environ.update(_TIERS[tier])
        toolchain = Toolchain()
        result = toolchain.simulate(files, top)
        assert result.ok, result.log
        assert any("All tests passed" in l for l in result.output_lines), (
            result.log
        )
        best = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            toolchain.simulate(files, top)
            best = min(best, time.perf_counter() - started)
        return best * 1000.0
    finally:
        for flag, value in previous.items():
            if value is None:
                os.environ.pop(flag, None)
            else:
                os.environ[flag] = value


#: the closure tier must beat the interpreter by at least this factor on
#: every design. Measured speedups are ~2.2-2.9x; the gate sits well below
#: to absorb CI-runner jitter while still catching a tier that silently
#: stopped engaging (speedup would collapse to ~1.0).
SIM_TIER_SPEEDUP_FLOOR = 1.3

#: the levelized two-state tier must beat the closure tier by at least this
#: factor on the combinational designs (where cones dominate; the clocked
#: counter is testbench-bound and levelized ≈ closure there). Measured
#: level_speedups on the comb designs are ~50-60x, so 1.5x only trips when
#: cone formation breaks outright.
SIM_LEVEL_SPEEDUP_FLOOR = 1.5

#: the batch tier must beat the levelized tier by at least this factor on
#: the 512-vector generated-testbench designs. Measured batch_speedups are
#: ~20-35x (the vectorized program replaces the whole event kernel and the
#: compile memo amortises testbench elaboration), so 5x only trips when the
#: bundle recognizer or the vector compiler stops engaging.
SIM_BATCH_SPEEDUP_FLOOR = 5.0


def _report_path():
    """Resolve the BENCH_sim.json output path, refusing escapes.

    The report must land inside ``benchmarks/`` so a stray ``BENCH_SIM_JSON``
    (or a CWD-relative override) can't scatter tracked-looking artifacts
    around the repo root again.
    """
    bench_dir = Path(__file__).resolve().parent
    default = bench_dir / "BENCH_sim.json"
    out = Path(os.environ.get("BENCH_SIM_JSON", default)).resolve()
    if bench_dir not in out.parents:
        raise RuntimeError(
            f"BENCH_SIM_JSON must point inside {bench_dir}, got {out}"
        )
    return out


def test_sim_tier_speedup():
    """Each tier beats the one below it; record BENCH_sim.json."""
    cases = {
        "verilog": ([HdlFile("c.v", COUNTER_V + TB_V, Language.VERILOG)], "tb"),
        "vhdl": (
            [HdlFile("c.vhd", COUNTER_VHD + TB_VHD, Language.VHDL)],
            "tb",
        ),
        "verilog_comb": (
            [HdlFile("c.v", COMB_V + TB_COMB_V, Language.VERILOG)],
            "tb",
        ),
        "vhdl_comb": (
            [HdlFile("c.vhd", COMB_VHD + TB_COMB_VHD, Language.VHDL)],
            "tb",
        ),
    }
    batch_cases = {
        "verilog_batch": (_batch_files(Language.VERILOG), "tb"),
        "vhdl_batch": (_batch_files(Language.VHDL), "tb"),
    }
    report = {}
    for name, (files, top) in cases.items():
        interp_ms = _best_ms(files, top, tier="interp")
        compiled_ms = _best_ms(files, top, tier="closure")
        levelized_ms = _best_ms(files, top, tier="levelized")
        report[name] = {
            "interp_ms": round(interp_ms, 3),
            "compiled_ms": round(compiled_ms, 3),
            "levelized_ms": round(levelized_ms, 3),
            "speedup": round(interp_ms / compiled_ms, 2),
            "level_speedup": round(compiled_ms / levelized_ms, 2),
        }
    for name, (files, top) in batch_cases.items():
        levelized_ms = _best_ms(files, top, tier="levelized")
        batch_ms = _best_ms(files, top, tier="batch")
        report[name] = {
            "levelized_ms": round(levelized_ms, 3),
            "batch_ms": round(batch_ms, 3),
            "batch_speedup": round(levelized_ms / batch_ms, 2),
        }
    # absolute minimums enforced by ``repro bench check`` (bare keys apply
    # everywhere, dotted names to one leaf — the level floor only holds on
    # the comb designs); relative drift gating alone would let speedups
    # ratchet down one tolerance-width per baseline refresh
    report["floors"] = {
        "speedup": SIM_TIER_SPEEDUP_FLOOR,
        "verilog_comb.level_speedup": SIM_LEVEL_SPEEDUP_FLOOR,
        "vhdl_comb.level_speedup": SIM_LEVEL_SPEEDUP_FLOOR,
        "batch_speedup": SIM_BATCH_SPEEDUP_FLOOR,
    }
    out = _report_path()
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nsim tier speedups ({out}):")
    for name in cases:
        entry = report[name]
        print(
            f"  {name}: interp {entry['interp_ms']:.2f} ms, "
            f"closure {entry['compiled_ms']:.2f} ms "
            f"({entry['speedup']:.2f}x), "
            f"levelized {entry['levelized_ms']:.2f} ms "
            f"({entry['level_speedup']:.2f}x over closure)"
        )
    for name in batch_cases:
        entry = report[name]
        print(
            f"  {name}: levelized {entry['levelized_ms']:.2f} ms, "
            f"batch {entry['batch_ms']:.2f} ms "
            f"({entry['batch_speedup']:.2f}x over levelized)"
        )
    for name in cases:
        assert report[name]["speedup"] >= SIM_TIER_SPEEDUP_FLOOR, (
            f"{name}: closure tier only {report[name]['speedup']}x faster "
            f"than the interpreter (floor {SIM_TIER_SPEEDUP_FLOOR}x) — "
            "did the closure compiler stop engaging?"
        )
    for name in ("verilog_comb", "vhdl_comb"):
        assert report[name]["level_speedup"] >= SIM_LEVEL_SPEEDUP_FLOOR, (
            f"{name}: levelized tier only {report[name]['level_speedup']}x "
            f"faster than the closure tier "
            f"(floor {SIM_LEVEL_SPEEDUP_FLOOR}x) — did cone formation "
            "stop engaging?"
        )
    for name in batch_cases:
        assert report[name]["batch_speedup"] >= SIM_BATCH_SPEEDUP_FLOOR, (
            f"{name}: batch tier only {report[name]['batch_speedup']}x "
            f"faster than the levelized tier "
            f"(floor {SIM_BATCH_SPEEDUP_FLOOR}x) — did the bundle "
            "recognizer or the vector compiler stop engaging?"
        )


def test_golden_tb_simulation(benchmark, full_suite):
    problem = full_suite.get("counter8")
    toolchain = Toolchain()
    files = [
        HdlFile("top_module.v", problem.reference[Language.VERILOG],
                Language.VERILOG),
        HdlFile("tb.v", problem.golden_tb[Language.VERILOG], Language.VERILOG),
    ]
    result = benchmark(toolchain.simulate, files, "tb")
    assert result.ok
