"""The repository benchmark's hooks still find what they wrap.

``perfbench/layers.py`` times each layer by replacing named entry points
(``VerilogLexer.tokenize``, ``SourceFile.__init__``, ``parse_verilog`` in
``repro.eda.toolchain`` ...) through the owner's own ``__dict__``. A rename,
a move into a base class or a change of import style silently breaks that
contract; this check catches it in seconds instead of in a full benchmark
run.
"""

import types
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    # executed from source, so no bytecode cache lands in perfbench/
    module = types.ModuleType("perfbench_layers")
    code = compile(LAYERS_PATH.read_text(), str(LAYERS_PATH), "exec")
    exec(code, module.__dict__)
    return module


layers = _load_layers()

TARGETS = sorted({
    (module, path)
    for _name, module, path, *_hook in layers.PATCHES + layers.LOOKUPS
})


@pytest.mark.parametrize("module,path", TARGETS)
def test_target_is_defined_on_its_owner(module, path):
    owner, attr = layers._resolve(module, path)
    assert attr in vars(owner), (
        f"{module}:{path} is not in {owner!r}'s own __dict__ (inherited or "
        "renamed), so the benchmark cannot wrap it"
    )
    assert callable(vars(owner)[attr])


def test_lexers_keep_their_source():
    """The lex-bytes hook reads ``lexer.source.text``."""
    from repro.hdl.diagnostics import DiagnosticCollector
    from repro.hdl.source import SourceFile
    from repro.verilog.lexer import VerilogLexer
    from repro.vhdl.lexer import VhdlLexer

    for lexer_class in (VerilogLexer, VhdlLexer):
        source = SourceFile("f", "text")
        lexer = lexer_class(source, DiagnosticCollector())
        assert lexer.source.text == "text"
