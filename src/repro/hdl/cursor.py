"""Token cursor shared by the Verilog and VHDL recursive-descent parsers.

Both parsers walk a lexed token list with one token of lookahead, report
syntax errors through the shared collector under the same ``VRFC`` codes,
and recover by skipping to the next ``;`` outside brackets. Only the bracket
pairs and the keywords that end a recovery differ per language; they are
class data here.
"""

from __future__ import annotations

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile, SourceSpan
from repro.hdl.tokens import Token, TokenKind


class ParseError(Exception):
    """Internal: unwinds to the nearest recovery point."""


class TokenCursor:
    """Lookahead, expectation and recovery over one file's token stream."""

    _CODE_SYNTAX = "VRFC 10-1412"
    _CODE_UNSUPPORTED = "VRFC 10-2951"

    #: the language's lexer class; it tokenizes the whole file up front
    _LEXER: type
    #: brackets that :meth:`_sync_to_semicolon` steps over as a whole
    _SYNC_OPEN: tuple[str, ...] = ("(",)
    _SYNC_CLOSE: tuple[str, ...] = (")",)
    #: keywords that end a recovery without consuming them
    _SYNC_STOP: tuple[str, ...] = ()

    def __init__(self, source: SourceFile, collector: DiagnosticCollector):
        self.source = source
        self.collector = collector
        self.tokens: list[Token] = self._LEXER(source, collector).tokenize()
        self.pos = 0

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _at_eof(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    @staticmethod
    def _describe(token: Token) -> str:
        if token.kind is TokenKind.EOF:
            return "end of file"
        return f"'{token.text}'"

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self._peek()
        span = token.span if token.span.length else SourceSpan(
            token.span.start_offset, token.span.start_offset + 1
        )
        self.collector.error(
            self._CODE_SYNTAX, message, source=self.source, span=span
        )
        return ParseError(message)

    def _expected(self, what: str, context: str) -> ParseError:
        token = self._peek()
        return self._error(
            f"syntax error near {self._describe(token)}: expected {what} "
            f"{context}",
            token,
        )

    def _expect_punct(self, text: str, context: str) -> Token:
        if self._peek().is_op(text):
            return self._advance()
        raise self._expected(f"'{text}'", context)

    def _expect_keyword(self, name: str, context: str) -> Token:
        if self._peek().is_kw(name):
            return self._advance()
        raise self._expected(f"'{name}'", context)

    def _expect_ident(self, context: str) -> Token:
        if self._peek().kind is TokenKind.IDENT:
            return self._advance()
        raise self._expected("an identifier", context)

    def _sync_to_semicolon(self) -> None:
        depth = 0
        while not self._at_eof():
            token = self._peek()
            if token.is_op(*self._SYNC_OPEN):
                depth += 1
            elif token.is_op(*self._SYNC_CLOSE):
                depth = max(0, depth - 1)
            elif depth == 0 and token.is_op(";"):
                self._advance()
                return
            elif depth == 0 and token.is_kw(*self._SYNC_STOP):
                return
            self._advance()
