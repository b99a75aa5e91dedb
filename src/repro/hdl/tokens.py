"""Token machinery shared by the Verilog and VHDL lexers."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile, SourceSpan


class TokenKind(enum.Enum):
    """Language-independent token categories.

    Keyword sets differ per language; the lexers classify identifiers into
    ``KEYWORD`` using their own tables while reusing this kind enumeration.
    """

    IDENT = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    BASED_NUMBER = "based number"  # Verilog 4'b1010 / VHDL x"A5"
    STRING = "string"
    CHAR = "character literal"  # VHDL '0', '1'
    OPERATOR = "operator"
    PUNCT = "punctuation"
    SYSTEM_ID = "system identifier"  # Verilog $display etc.
    EOF = "end of file"
    ERROR = "invalid token"


@dataclass(frozen=True)
class Token:
    """One lexed token with its source span and raw text."""

    kind: TokenKind
    text: str
    span: SourceSpan

    def is_kw(self, *names: str) -> bool:
        """True when this token is one of the given keywords.

        VHDL keyword comparison is case-insensitive; the VHDL lexer stores
        keyword text lower-cased so a plain comparison works for both languages.
        """
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_op(self, *ops: str) -> bool:
        return (
            self.kind in (TokenKind.OPERATOR, TokenKind.PUNCT)
            and self.text in ops
        )

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"


def eof_token(offset: int) -> Token:
    """The empty token that ends every stream, at the end of the text."""
    return Token(TokenKind.EOF, "", SourceSpan(offset, offset))


def error_token(
    source: SourceFile,
    collector: DiagnosticCollector,
    code: str,
    message: str,
    start: int,
    end: int,
) -> Token:
    """Report a lexical error over ``[start, end)`` and return its token."""
    span = SourceSpan(start, end)
    collector.error(code, message, source=source, span=span)
    return Token(TokenKind.ERROR, source.text[start:end], span)
