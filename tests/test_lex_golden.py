"""Golden token streams: both lexers' output is pinned by digest.

Every token's (kind, text, start, end) and every lexer diagnostic's (code,
message, line, column) is hashed per input group and language, and compared
with the digests committed in ``lex_golden.json``. The groups are the whole
evaluation suite (references, golden testbenches, every syntax and
functional mutant), 300 QA renderings, the QA regression corpus, and seeded
ASCII noise that exercises the error-recovery paths (unterminated comments
and strings, bad based literals, stray characters).

Each group also records a digest of its *inputs*, so a failure says whether
the inputs moved (a suite or renderer change: re-record) or the token stream
did (a lexer change: investigate). To re-record after an intended change::

    PYTHONPATH=src python tests/test_lex_golden.py --record
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.designs.mutations import apply_mutation
from repro.eda.toolchain import Language
from repro.evalsuite.suite import build_suite
from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.qa.corpus import DEFAULT_CORPUS_DIR, load_corpus
from repro.qa.oracle import case_sources
from repro.qa.render import render
from repro.qa.spec import generate_spec
from repro.verilog.lexer import lex_verilog
from repro.vhdl.lexer import lex_vhdl

GOLDEN_PATH = Path(__file__).with_name("lex_golden.json")

LEXERS = {Language.VERILOG: lex_verilog, Language.VHDL: lex_vhdl}

QA_SEED = 0
QA_PROGRAMS = 300
NOISE_SEED = 20250
NOISE_INPUTS = 2000
NOISE_MAX_PIECES = 64

#: every ASCII character plus the fragments that open the lexers' error
#: and multi-character paths
NOISE_PIECES = tuple(chr(code) for code in range(128)) + (
    "/*", "*/", "//", "--", "`timescale", "4'b", "4'sd", "'h", "'s", "8'",
    "'0'", "x\"", "X\"", "b\"0", "\"", "\\", "\\\n", "$", "$display", "1.5",
    "1_0", "__", "<<<", "===", "**", ":=", "=>", "<>", "/=", "module",
    "ENTITY", "end", " ", "\n", "\t",
)


def _suite_inputs(language: Language) -> list[str]:
    texts = []
    for problem in build_suite().problems:
        reference = problem.reference[language]
        texts += [reference, problem.golden_tb[language]]
        for mutation in (problem.syntax_mutations[language]
                         + problem.functional_mutations[language]):
            texts.append(apply_mutation(reference, mutation))
    return texts


def _qa_inputs(language: Language) -> list[str]:
    return [render(generate_spec(QA_SEED, index))[language]
            for index in range(QA_PROGRAMS)]


def _corpus_inputs(language: Language) -> list[str]:
    return [case_sources(case)[language]
            for case in load_corpus(DEFAULT_CORPUS_DIR)]


def _noise_inputs(language: Language) -> list[str]:
    # getrandbits is the raw generator output, stable across Python versions
    rng = random.Random(NOISE_SEED)
    texts = []
    for _ in range(NOISE_INPUTS):
        count = rng.getrandbits(16) % (NOISE_MAX_PIECES + 1)
        texts.append("".join(
            NOISE_PIECES[rng.getrandbits(16) % len(NOISE_PIECES)]
            for _ in range(count)
        ))
    return texts


GROUPS = {
    "suite": _suite_inputs,
    "qa": _qa_inputs,
    "corpus": _corpus_inputs,
    "noise": _noise_inputs,
}

KEYS = [f"{group}/{language.value}" for group in GROUPS for language in Language]


def token_stream(language: Language, text: str) -> str:
    """One line per token, then one line per lexer diagnostic."""
    collector = DiagnosticCollector()
    tokens = LEXERS[language](SourceFile("golden", text), collector)
    lines = [
        f"{tok.kind.name} {tok.text!r} {tok.span.start_offset} "
        f"{tok.span.end_offset}"
        for tok in tokens
    ]
    lines += [
        f"! {diag.code} {diag.message!r} {diag.location.line} "
        f"{diag.location.column}"
        for diag in collector.diagnostics
    ]
    return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def digest(key: str) -> dict:
    group, language_value = key.split("/")
    language = Language(language_value)
    texts = GROUPS[group](language)
    inputs = hashlib.sha256()
    stream = hashlib.sha256()
    for text in texts:
        inputs.update(text.encode("utf-8", "surrogatepass") + b"\0")
        stream.update(token_stream(language, text).encode(
            "utf-8", "surrogatepass") + b"\0")
    return {
        "inputs": len(texts),
        "input_sha256": inputs.hexdigest(),
        "stream_sha256": stream.hexdigest(),
    }


@pytest.mark.parametrize("key", KEYS)
def test_token_streams_match_golden(key):
    recorded = json.loads(GOLDEN_PATH.read_text())[key]
    current = digest(key)
    assert (current["inputs"], current["input_sha256"]) == (
        recorded["inputs"], recorded["input_sha256"]
    ), f"{key}: the inputs changed; re-record if that was intended"
    assert current["stream_sha256"] == recorded["stream_sha256"], (
        f"{key}: token stream or lexer diagnostics differ from the recording"
    )


def test_noise_reaches_every_error_path():
    """The noise group is only a gate if it drives the recovery paths."""
    messages = set()
    for language in Language:
        for text in _noise_inputs(language):
            collector = DiagnosticCollector()
            LEXERS[language](SourceFile("noise", text), collector)
            messages |= {diag.message for diag in collector.diagnostics}
    for expected in (
        "unterminated block comment",
        "unterminated string literal",
        "based literal is missing digits",
        "invalid base specifier",
        "expected system task name after '$'",
        "unexpected character",
    ):
        assert any(message.startswith(expected) for message in messages), (
            f"no noise input reaches {expected!r}"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    GOLDEN_PATH.write_text(
        json.dumps({key: digest(key) for key in KEYS}, indent=2) + "\n"
    )
    print(f"recorded {len(KEYS)} digests to {GOLDEN_PATH}")
