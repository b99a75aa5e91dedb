"""Fuzz properties: the frontends never crash, whatever the input.

The whole premise of the paper is that LLMs emit broken code; the frontends
must convert *any* text into diagnostics, never into exceptions. Hypothesis
feeds them arbitrary strings and mangled variants of real designs. Example
budgets come from the profiles registered in ``conftest.py``
(``HYPOTHESIS_PROFILE=dev|ci``).
"""

import pytest
from hypothesis import given, strategies as st

from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.hdl.source import SourceFile
from repro.verilog.analyzer import analyze_verilog
from repro.verilog.parser import parse_verilog
from repro.vhdl.analyzer import analyze_vhdl
from repro.vhdl.parser import parse_vhdl

VERILOG_SEED = """
module top_module(input clk, input rst, input [3:0] d, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 4'd0;
        else q <= d + 4'd1;
    end
endmodule
"""

VHDL_SEED = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity top_module is
    port (clk : in std_logic; d : in std_logic_vector(3 downto 0);
          q : out std_logic_vector(3 downto 0));
end entity;
architecture rtl of top_module is
begin
    process(clk) begin
        if rising_edge(clk) then
            q <= std_logic_vector(unsigned(d) + 1);
        end if;
    end process;
end architecture;
"""

#: characters that appear in HDL, to bias the fuzz toward interesting inputs,
#: plus escapes, directives, rare whitespace and non-ASCII letters and digits
#: (which the ASCII token classes must reject as stray characters)
HDL_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFXZ0123456789"
    " \t\n;:,.()[]{}<>=+-*/&|^~!?#@$'\"_%"
    "\\`\r\f\u00b2\u0663\u00e9"
)


def mangled(source: str, cut_at: int, insert_at: int, junk: str) -> str:
    cut_at %= max(len(source), 1)
    insert_at %= max(len(source), 1)
    return source[:insert_at] + junk + source[insert_at:cut_at] + source[cut_at + 40:]


@given(st.text(alphabet=HDL_ALPHABET, max_size=300))
def test_verilog_parser_never_crashes_on_noise(text):
    unit, collector = parse_verilog(text)
    analyze_verilog(unit, SourceFile("f.v", text), collector)


@given(st.text(alphabet=HDL_ALPHABET, max_size=300))
def test_vhdl_parser_never_crashes_on_noise(text):
    design, collector = parse_vhdl(text)
    analyze_vhdl(design, SourceFile("f.vhd", text), collector)


@given(
    cut_at=st.integers(0, 500),
    insert_at=st.integers(0, 500),
    junk=st.text(alphabet=HDL_ALPHABET, max_size=20),
)
def test_verilog_toolchain_survives_mangled_designs(cut_at, insert_at, junk):
    source = mangled(VERILOG_SEED, cut_at, insert_at, junk)
    toolchain = Toolchain()
    result = toolchain.compile(
        [HdlFile("m.v", source, Language.VERILOG)], "top_module"
    )
    # ok or not, the call must return a structured result with a log
    assert isinstance(result.log, str)


@given(
    cut_at=st.integers(0, 700),
    insert_at=st.integers(0, 700),
    junk=st.text(alphabet=HDL_ALPHABET, max_size=20),
)
def test_vhdl_toolchain_survives_mangled_designs(cut_at, insert_at, junk):
    source = mangled(VHDL_SEED, cut_at, insert_at, junk)
    toolchain = Toolchain()
    result = toolchain.compile(
        [HdlFile("m.vhd", source, Language.VHDL)], "top_module"
    )
    assert isinstance(result.log, str)


def test_empty_and_whitespace_inputs():
    for text in ("", " ", "\n\n\n", "\t"):
        unit, collector = parse_verilog(text)
        assert unit.modules == ()
        design, collector = parse_vhdl(text)
        assert design.entities == ()
