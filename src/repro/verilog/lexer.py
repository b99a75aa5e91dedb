"""Verilog lexer.

Produces a flat token stream with source spans from one compiled master
pattern: each match is the trivia before a token (whitespace, comments,
compiler directives) followed by exactly one token alternative, tried in
order, so the pattern's order is the lexer's maximal-munch order. Lexical
errors (unterminated strings/comments, malformed based literals, a lone
``$``, stray characters) are alternatives of the same pattern; they are
reported through the shared :class:`~repro.hdl.diagnostics.DiagnosticCollector`
with ``VRFC``-style codes so they surface in the compile log exactly like
parser errors do. Token classes are ASCII: any other character outside a
comment or string is a stray character.
"""

from __future__ import annotations

import re

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile, SourceSpan
from repro.hdl.tokens import Token, TokenKind, eof_token, error_token

VERILOG_KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real time
    parameter localparam assign always initial begin end if else case casez
    casex endcase default for while repeat forever posedge negedge or and not
    function endfunction task endtask generate endgenerate genvar signed
    unsigned deassign disable wait fork join
    """.split()
)

#: multi-character operators, longest first so maximal munch works
_OPERATORS = [
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**", "+:", "-:",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=", "?",
]

_PUNCT = set("()[]{};:,.#@")

_CODE = "VRFC 10-4982"

#: a string up to (not including) its closing quote; ``\\`` escapes any
#: character but a newline
_STRING_HEAD = r'"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*'
#: the size and quote of a based literal: ``4'``, ``8's`` or a bare ``'``
#: directly before its base
_BASED_HEAD = r"(?:[0-9][0-9_]*'[sS]?|')[bBdDhHoO]"

_PATTERN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|`[^\n]*)*(?:"
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<ESCAPED>\\[^\s\x80-\U0010ffff]+)"
    rf"|(?P<BASED_NUMBER>{_BASED_HEAD}[A-Za-z0-9_?]+)"
    rf"|(?P<NO_DIGITS>{_BASED_HEAD})"
    r"|(?P<BAD_BASE>[0-9][0-9_]*'[sS]?)"
    r"|(?P<NUMBER>[0-9][0-9_]*)"
    rf'|(?P<STRING>{_STRING_HEAD}")'
    rf"|(?P<OPEN_STRING>{_STRING_HEAD}\\?)"
    r"|(?P<SYSTEM_ID>\$[A-Za-z0-9_]+)"
    r"|(?P<LONE_DOLLAR>\$)"
    r"|(?P<OPEN_COMMENT>/\*)"
    rf"|(?P<OPERATOR>{'|'.join(map(re.escape, _OPERATORS))})"
    rf"|(?P<PUNCT>[{re.escape(''.join(sorted(_PUNCT)))}])"
    r"|(?P<EOF>\Z)"
    r"|(?P<STRAY>.))",
    re.DOTALL,
)

#: token alternatives whose text is the token text, by group name
_KINDS = {
    kind.name: kind
    for kind in (TokenKind.IDENT, TokenKind.PUNCT, TokenKind.OPERATOR,
                 TokenKind.NUMBER, TokenKind.BASED_NUMBER, TokenKind.STRING,
                 TokenKind.SYSTEM_ID)
}

#: error alternatives whose message does not depend on the match
_MESSAGES = {
    "NO_DIGITS": "based literal is missing digits",
    "OPEN_STRING": "unterminated string literal",
    "LONE_DOLLAR": "expected system task name after '$'",
}


class VerilogLexer:
    """Master-pattern lexer for the supported Verilog subset."""

    def __init__(self, source: SourceFile, collector: DiagnosticCollector):
        self.source = source
        self.collector = collector

    def tokenize(self) -> list[Token]:
        text = self.source.text
        tokens: list[Token] = []
        append = tokens.append
        for match in _PATTERN.finditer(text):
            group = match.lastgroup
            start, end = match.span(group)
            value = match[group]
            kind = _KINDS.get(group)
            if kind is not None:
                if kind is TokenKind.IDENT and value in VERILOG_KEYWORDS:
                    kind = TokenKind.KEYWORD
                append(Token(kind, value, SourceSpan(start, end)))
            elif group == "ESCAPED":
                append(Token(TokenKind.IDENT, value[1:], SourceSpan(start, end)))
            elif group == "EOF":
                break
            elif group == "OPEN_COMMENT":
                # the comment swallows the rest of the file
                self._error("unterminated block comment", start, len(text))
                break
            elif group == "BAD_BASE":
                base = text[end] if end < len(text) else "\0"
                append(self._error(
                    f"invalid base specifier {base!r} in literal", start, end
                ))
            elif group == "STRAY":
                append(self._error(f"unexpected character {value!r}", start, end))
            else:
                append(self._error(_MESSAGES[group], start, end))
        append(eof_token(len(text)))
        return tokens

    def _error(self, message: str, start: int, end: int) -> Token:
        return error_token(self.source, self.collector, _CODE, message, start, end)


def lex_verilog(
    source: SourceFile, collector: DiagnosticCollector | None = None
) -> list[Token]:
    """Tokenize a source file; convenience wrapper used by tests and tools."""
    collector = collector if collector is not None else DiagnosticCollector()
    return VerilogLexer(source, collector).tokenize()
