"""Family: structural/hierarchical designs (submodule instantiation).

These exercise the instantiation path of both frontends: the reference
source contains helper modules/entities plus a `top_module` that wires them
together — the style VerilogEval's larger problems use.
"""

from __future__ import annotations

from repro.designs.mutations import functional, syntax
from repro.designs.model import CombModel, DesignSpec, ProblemDefinition
from repro.evalsuite.generators.common import ports

FAMILY = "structural"


def _ripple_adder4() -> ProblemDefinition:
    spec = DesignSpec(
        name="struct_ripple4",
        ports=ports(
            ("a", 4, "in"), ("b", 4, "in"), ("cin", 1, "in"),
            ("sum", 4, "out"), ("cout", 1, "out"),
        ),
        clocked=False,
    )
    reference_verilog = """\
module full_adder(
    input a,
    input b,
    input cin,
    output sum,
    output cout
);
    assign sum = a ^ b ^ cin;
    assign cout = (a & b) | (a & cin) | (b & cin);
endmodule

module top_module(
    input [3:0] a,
    input [3:0] b,
    input cin,
    output [3:0] sum,
    output cout
);
    wire c1, c2, c3;
    full_adder fa0(.a(a[0]), .b(b[0]), .cin(cin), .sum(sum[0]), .cout(c1));
    full_adder fa1(.a(a[1]), .b(b[1]), .cin(c1), .sum(sum[1]), .cout(c2));
    full_adder fa2(.a(a[2]), .b(b[2]), .cin(c2), .sum(sum[2]), .cout(c3));
    full_adder fa3(.a(a[3]), .b(b[3]), .cin(c3), .sum(sum[3]), .cout(cout));
endmodule
"""
    reference_vhdl = """\
library ieee;
use ieee.std_logic_1164.all;

entity full_adder is
    port (
        a : in std_logic;
        b : in std_logic;
        cin : in std_logic;
        sum : out std_logic;
        cout : out std_logic
    );
end entity;

architecture rtl of full_adder is
begin
    sum <= a xor b xor cin;
    cout <= (a and b) or (a and cin) or (b and cin);
end architecture;

library ieee;
use ieee.std_logic_1164.all;

entity top_module is
    port (
        a : in std_logic_vector(3 downto 0);
        b : in std_logic_vector(3 downto 0);
        cin : in std_logic;
        sum : out std_logic_vector(3 downto 0);
        cout : out std_logic
    );
end entity;

architecture rtl of top_module is
    signal c1, c2, c3 : std_logic;
begin
    fa0: entity work.full_adder port map (
        a => a(0), b => b(0), cin => cin, sum => sum(0), cout => c1);
    fa1: entity work.full_adder port map (
        a => a(1), b => b(1), cin => c1, sum => sum(1), cout => c2);
    fa2: entity work.full_adder port map (
        a => a(2), b => b(2), cin => c2, sum => sum(2), cout => c3);
    fa3: entity work.full_adder port map (
        a => a(3), b => b(3), cin => c3, sum => sum(3), cout => cout);
end architecture;
"""
    return ProblemDefinition(
        pid="struct_ripple4",
        family=FAMILY,
        spec=spec,
        prompt=(
            "Build a 4-bit ripple-carry adder structurally: define a "
            "1-bit full-adder module and instantiate it four times, "
            "chaining the carries from cin through to cout."
        ),
        reference_verilog=reference_verilog,
        reference_vhdl=reference_vhdl,
        model=CombModel(
            lambda i: {
                "sum": (i["a"] + i["b"] + i["cin"]) & 0xF,
                "cout": (i["a"] + i["b"] + i["cin"]) >> 4,
            }
        ),
        syntax_mutations_verilog=[
            syntax(
                "instance fa1 missing its semicolon",
                ".sum(sum[1]), .cout(c2));",
                ".sum(sum[1]), .cout(c2))",
            ),
            syntax(
                "misspelled 'endmodule' on the full adder",
                "endmodule\n\nmodule top_module",
                "endmodul\n\nmodule top_module",
            ),
        ],
        syntax_mutations_vhdl=[
            syntax(
                "instance fa1 missing its semicolon",
                "sum => sum(1), cout => c2);",
                "sum => sum(1), cout => c2)",
            ),
            syntax(
                "missing 'is' on the full_adder entity",
                "entity full_adder is",
                "entity full_adder",
            ),
        ],
        functional_mutations_verilog=[
            functional(
                "carry chain broken between stages 1 and 2",
                ".b(b[2]), .cin(c2)",
                ".b(b[2]), .cin(c1)",
            ),
            functional(
                "full-adder carry drops the b&cin term",
                "(a & b) | (a & cin) | (b & cin)",
                "(a & b) | (a & cin)",
            ),
        ],
        functional_mutations_vhdl=[
            functional(
                "carry chain broken between stages 1 and 2",
                "b => b(2), cin => c2",
                "b => b(2), cin => c1",
            ),
            functional(
                "full-adder carry drops the b&cin term",
                "(a and b) or (a and cin) or (b and cin)",
                "(a and b) or (a and cin)",
            ),
        ],
    )


def _mux_tree() -> ProblemDefinition:
    spec = DesignSpec(
        name="struct_muxtree",
        ports=ports(
            ("a", 1, "in"), ("b", 1, "in"), ("c", 1, "in"), ("d", 1, "in"),
            ("sel", 2, "in"), ("y", 1, "out"),
        ),
        clocked=False,
    )
    reference_verilog = """\
module mux2(
    input a,
    input b,
    input sel,
    output y
);
    assign y = sel ? b : a;
endmodule

module top_module(
    input a,
    input b,
    input c,
    input d,
    input [1:0] sel,
    output y
);
    wire lo, hi;
    mux2 m0(.a(a), .b(b), .sel(sel[0]), .y(lo));
    mux2 m1(.a(c), .b(d), .sel(sel[0]), .y(hi));
    mux2 m2(.a(lo), .b(hi), .sel(sel[1]), .y(y));
endmodule
"""
    reference_vhdl = """\
library ieee;
use ieee.std_logic_1164.all;

entity mux2 is
    port (
        a : in std_logic;
        b : in std_logic;
        sel : in std_logic;
        y : out std_logic
    );
end entity;

architecture rtl of mux2 is
begin
    y <= b when sel = '1' else a;
end architecture;

library ieee;
use ieee.std_logic_1164.all;

entity top_module is
    port (
        a : in std_logic;
        b : in std_logic;
        c : in std_logic;
        d : in std_logic;
        sel : in std_logic_vector(1 downto 0);
        y : out std_logic
    );
end entity;

architecture rtl of top_module is
    signal lo, hi : std_logic;
begin
    m0: entity work.mux2 port map (a => a, b => b, sel => sel(0), y => lo);
    m1: entity work.mux2 port map (a => c, b => d, sel => sel(0), y => hi);
    m2: entity work.mux2 port map (a => lo, b => hi, sel => sel(1), y => y);
end architecture;
"""
    return ProblemDefinition(
        pid="struct_muxtree",
        family=FAMILY,
        spec=spec,
        prompt=(
            "Build a 4-to-1 multiplexer structurally from three 2-to-1 "
            "multiplexers: sel=00 selects a, 01 selects b, 10 selects c, "
            "11 selects d."
        ),
        reference_verilog=reference_verilog,
        reference_vhdl=reference_vhdl,
        model=CombModel(
            lambda i: {"y": [i["a"], i["b"], i["c"], i["d"]][i["sel"]]}
        ),
        syntax_mutations_verilog=[
            syntax(
                "instance m1 missing its closing parenthesis",
                ".sel(sel[0]), .y(hi));",
                ".sel(sel[0]), .y(hi);",
            ),
            syntax(
                "misspelled 'module' on the mux2 definition",
                "module mux2",
                "modul mux2",
            ),
        ],
        syntax_mutations_vhdl=[
            syntax(
                "instance m1 missing its semicolon",
                "sel => sel(0), y => hi);",
                "sel => sel(0), y => hi)",
            ),
            syntax(
                "missing 'is' on the mux2 entity",
                "entity mux2 is",
                "entity mux2",
            ),
        ],
        functional_mutations_verilog=[
            functional(
                "second stage selects with the wrong bit",
                ".b(hi), .sel(sel[1])",
                ".b(hi), .sel(sel[0])",
            ),
            functional(
                "mux2 selection inverted",
                "sel ? b : a",
                "sel ? a : b",
            ),
        ],
        functional_mutations_vhdl=[
            functional(
                "second stage selects with the wrong bit",
                "b => hi, sel => sel(1)",
                "b => hi, sel => sel(0)",
            ),
            functional(
                "mux2 selection inverted",
                "y <= b when sel = '1' else a;",
                "y <= a when sel = '1' else b;",
            ),
        ],
    )


def _addsub_struct() -> ProblemDefinition:
    spec = DesignSpec(
        name="struct_addsub4",
        ports=ports(
            ("a", 4, "in"), ("b", 4, "in"), ("sub", 1, "in"),
            ("y", 4, "out"),
        ),
        clocked=False,
    )
    reference_verilog = """\
module adder4(
    input [3:0] x,
    input [3:0] y,
    input cin,
    output [3:0] s
);
    assign s = x + y + cin;
endmodule

module top_module(
    input [3:0] a,
    input [3:0] b,
    input sub,
    output [3:0] y
);
    wire [3:0] b_sel;
    assign b_sel = b ^ {4{sub}};
    adder4 core(.x(a), .y(b_sel), .cin(sub), .s(y));
endmodule
"""
    reference_vhdl = """\
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity adder4 is
    port (
        x : in std_logic_vector(3 downto 0);
        y : in std_logic_vector(3 downto 0);
        cin : in std_logic;
        s : out std_logic_vector(3 downto 0)
    );
end entity;

architecture rtl of adder4 is
begin
    s <= std_logic_vector(unsigned(x) + unsigned(y)
         + resize(unsigned(cin), 4));
end architecture;

library ieee;
use ieee.std_logic_1164.all;

entity top_module is
    port (
        a : in std_logic_vector(3 downto 0);
        b : in std_logic_vector(3 downto 0);
        sub : in std_logic;
        y : out std_logic_vector(3 downto 0)
    );
end entity;

architecture rtl of top_module is
    signal b_sel : std_logic_vector(3 downto 0);
begin
    b_sel <= b xor (sub & sub & sub & sub);
    core: entity work.adder4 port map (x => a, y => b_sel, cin => sub, s => y);
end architecture;
"""
    return ProblemDefinition(
        pid="struct_addsub4",
        family=FAMILY,
        spec=spec,
        prompt=(
            "Build a 4-bit adder/subtractor structurally: reuse a 4-bit "
            "adder submodule and compute a - b (when sub is 1) by "
            "inverting b with XOR gates and feeding sub as the carry in; "
            "results wrap modulo 16."
        ),
        reference_verilog=reference_verilog,
        reference_vhdl=reference_vhdl,
        model=CombModel(
            lambda i: {
                "y": (i["a"] + (i["b"] ^ (0xF if i["sub"] else 0)) + i["sub"])
                & 0xF
            }
        ),
        syntax_mutations_verilog=[
            syntax(
                "instance core missing its semicolon",
                ".s(y));",
                ".s(y))",
            ),
            syntax(
                "misspelled 'module' on the adder definition",
                "module adder4",
                "modul adder4",
            ),
        ],
        syntax_mutations_vhdl=[
            syntax(
                "instance core missing its semicolon",
                "s => y);",
                "s => y)",
            ),
            syntax(
                "missing 'is' on the adder4 entity",
                "entity adder4 is",
                "entity adder4",
            ),
        ],
        functional_mutations_verilog=[
            functional(
                "carry-in not driven for subtraction",
                ".cin(sub)",
                ".cin(1'b0)",
            ),
            functional(
                "b not inverted for subtraction",
                "b ^ {4{sub}}",
                "b",
            ),
        ],
        functional_mutations_vhdl=[
            functional(
                "carry-in not driven for subtraction",
                "cin => sub, s => y",
                "cin => '0', s => y",
            ),
            functional(
                "b not inverted for subtraction",
                "b xor (sub & sub & sub & sub)",
                "b",
            ),
        ],
    )


def _parity_tree() -> ProblemDefinition:
    spec = DesignSpec(
        name="struct_parity8",
        ports=ports(("d", 8, "in"), ("p", 1, "out")),
        clocked=False,
    )
    reference_verilog = """\
module xor2(
    input a,
    input b,
    output y
);
    assign y = a ^ b;
endmodule

module top_module(
    input [7:0] d,
    output p
);
    wire [3:0] l1;
    wire [1:0] l2;
    xor2 x0(.a(d[0]), .b(d[1]), .y(l1[0]));
    xor2 x1(.a(d[2]), .b(d[3]), .y(l1[1]));
    xor2 x2(.a(d[4]), .b(d[5]), .y(l1[2]));
    xor2 x3(.a(d[6]), .b(d[7]), .y(l1[3]));
    xor2 x4(.a(l1[0]), .b(l1[1]), .y(l2[0]));
    xor2 x5(.a(l1[2]), .b(l1[3]), .y(l2[1]));
    xor2 x6(.a(l2[0]), .b(l2[1]), .y(p));
endmodule
"""
    reference_vhdl = """\
library ieee;
use ieee.std_logic_1164.all;

entity xor2 is
    port (
        a : in std_logic;
        b : in std_logic;
        y : out std_logic
    );
end entity;

architecture rtl of xor2 is
begin
    y <= a xor b;
end architecture;

library ieee;
use ieee.std_logic_1164.all;

entity top_module is
    port (
        d : in std_logic_vector(7 downto 0);
        p : out std_logic
    );
end entity;

architecture rtl of top_module is
    signal l1 : std_logic_vector(3 downto 0);
    signal l2 : std_logic_vector(1 downto 0);
begin
    x0: entity work.xor2 port map (a => d(0), b => d(1), y => l1(0));
    x1: entity work.xor2 port map (a => d(2), b => d(3), y => l1(1));
    x2: entity work.xor2 port map (a => d(4), b => d(5), y => l1(2));
    x3: entity work.xor2 port map (a => d(6), b => d(7), y => l1(3));
    x4: entity work.xor2 port map (a => l1(0), b => l1(1), y => l2(0));
    x5: entity work.xor2 port map (a => l1(2), b => l1(3), y => l2(1));
    x6: entity work.xor2 port map (a => l2(0), b => l2(1), y => p);
end architecture;
"""
    return ProblemDefinition(
        pid="struct_parity8",
        family=FAMILY,
        spec=spec,
        prompt=(
            "Build an 8-bit parity generator structurally: define a "
            "2-input XOR module and compose a balanced XOR tree producing "
            "the parity of d on output p."
        ),
        reference_verilog=reference_verilog,
        reference_vhdl=reference_vhdl,
        model=CombModel(lambda i: {"p": bin(i["d"]).count("1") & 1}),
        syntax_mutations_verilog=[
            syntax(
                "instance x4 missing its semicolon",
                ".b(l1[1]), .y(l2[0]));",
                ".b(l1[1]), .y(l2[0]))",
            ),
            syntax(
                "misspelled 'module' on the xor2 definition",
                "module xor2",
                "modul xor2",
            ),
        ],
        syntax_mutations_vhdl=[
            syntax(
                "instance x4 missing its semicolon",
                "b => l1(1), y => l2(0));",
                "b => l1(1), y => l2(0))",
            ),
            syntax(
                "missing 'is' on the xor2 entity",
                "entity xor2 is",
                "entity xor2",
            ),
        ],
        functional_mutations_verilog=[
            functional(
                "tree wiring duplicates a leaf",
                ".a(l1[2]), .b(l1[3])",
                ".a(l1[2]), .b(l1[2])",
            ),
            functional(
                "xor2 cell is an OR gate",
                "assign y = a ^ b;",
                "assign y = a | b;",
            ),
        ],
        functional_mutations_vhdl=[
            functional(
                "tree wiring duplicates a leaf",
                "a => l1(2), b => l1(3)",
                "a => l1(2), b => l1(2)",
            ),
            functional(
                "xor2 cell is an OR gate",
                "y <= a xor b;",
                "y <= a or b;",
            ),
        ],
    )


def generate():
    return [_ripple_adder4(), _mux_tree(), _addsub_struct(), _parity_tree()]
