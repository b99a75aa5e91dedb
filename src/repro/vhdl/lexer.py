"""VHDL lexer.

Case-insensitive keywords (stored lower-cased), ``--`` comments, character
literals (``'0'``), bit-string literals (``"0101"``, ``x"a5"``), and the VHDL
operator set. Like the Verilog lexer it runs one compiled master pattern
(trivia, then one token alternative in maximal-munch order, error
alternatives included) and shares the token model, so the parsers look
alike. Token classes are ASCII: any other character outside a comment,
string or character literal is a stray character.
"""

from __future__ import annotations

import re

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile, SourceSpan
from repro.hdl.tokens import Token, TokenKind, eof_token, error_token

VHDL_KEYWORDS = frozenset(
    """
    abs access after alias all and architecture array assert attribute begin
    block body buffer bus case component configuration constant disconnect
    downto else elsif end entity exit file for function generate generic
    group guarded if impure in inertial inout is label library linkage
    literal loop map mod nand new next nor not null of on open or others
    out package port postponed procedure process pure range record register
    reject rem report return rol ror select severity signal shared sla sll
    sra srl subtype then to transport type unaffected units until use
    variable wait when while with xnor xor
    """.split()
)

_OPERATORS = [
    "**", ":=", "=>", "/=", "<=", ">=", "<>",
    "=", "<", ">", "+", "-", "*", "/", "&", "|",
]

_PUNCT = set("()[];:,.'")

_CODE = "VRFC 10-1491"

_PATTERN = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*(?:"
    # a bit-string literal's base is a one-letter identifier before a string
    r'(?P<BASED_NUMBER>[xXbBoO]"[^"\n]*")'
    r'|(?P<OPEN_BIT_STRING>[xXbBoO]"[^"\n]*)'
    r"|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)"
    # a real literal is lexed whole and rejected by the parser
    r"|(?P<NUMBER>[0-9][0-9_]*(?:\.[0-9]*)?)"
    r'|(?P<STRING>"[^"\n]*")'
    r'|(?P<OPEN_STRING>"[^"\n]*)'
    # a quote two ahead makes a character literal; otherwise the tick is
    # punctuation (the attribute tick of clk'event)
    r"|(?P<CHAR>'.')"
    rf"|(?P<OPERATOR>{'|'.join(map(re.escape, _OPERATORS))})"
    rf"|(?P<PUNCT>[{re.escape(''.join(sorted(_PUNCT)))}])"
    r"|(?P<EOF>\Z)"
    r"|(?P<STRAY>.))",
    re.DOTALL,
)

#: token alternatives whose text is the token text, by group name
_KINDS = {
    kind.name: kind
    for kind in (TokenKind.PUNCT, TokenKind.OPERATOR, TokenKind.NUMBER,
                 TokenKind.STRING, TokenKind.CHAR)
}


class VhdlLexer:
    """Master-pattern lexer for the supported VHDL subset."""

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
                append(Token(kind, value, SourceSpan(start, end)))
            elif group == "IDENT":
                lowered = value.lower()
                if lowered in VHDL_KEYWORDS:
                    append(Token(TokenKind.KEYWORD, lowered, SourceSpan(start, end)))
                else:
                    append(Token(TokenKind.IDENT, value, SourceSpan(start, end)))
            elif group == "BASED_NUMBER":
                append(Token(TokenKind.BASED_NUMBER, value[0].lower() + value[1:],
                             SourceSpan(start, end)))
            elif group == "EOF":
                break
            elif group == "STRAY":
                append(self._error(f"unexpected character {value!r}", start, end))
            else:  # OPEN_STRING / OPEN_BIT_STRING, from the literal's start
                append(self._error("unterminated string literal", start, end))
        append(eof_token(len(text)))
        return tokens

    def _error(self, message: str, start: int, end: int) -> Token:
        return error_token(self.source, self.collector, _CODE, message, start, end)


def lex_vhdl(
    source: SourceFile, collector: DiagnosticCollector | None = None
) -> list[Token]:
    """Tokenize VHDL text; convenience wrapper used by tests and tools."""
    collector = collector if collector is not None else DiagnosticCollector()
    return VhdlLexer(source, collector).tokenize()
