"""Reference lexer for the differential front-end tests.

The generator-based, one-``match``-per-token lexer that preceded
``repro.cfg.lexer``, kept as the oracle the single-pass tokenizer is
checked against.  It carries the one behavioural change made with that
rewrite: newlines inside string and char literals advance the line
counter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


class LexError(ValueError):
    """Raised on input the lexer cannot tokenize."""


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int


KEYWORDS = {
    "if",
    "else",
    "while",
    "for",
    "return",
    "break",
    "continue",
    "switch",
    "case",
    "default",
    "int",
    "void",
    "char",
    "long",
    "unsigned",
    "static",
    "struct",
    "const",
}

_TOKEN_SPEC = [
    ("comment", r"/\*.*?\*/|//[^\n]*"),
    ("preproc", r"\#[^\n]*"),
    ("newline", r"\n"),
    ("ws", r"[ \t\r]+"),
    ("number", r"0[xX][0-9a-fA-F]+|\d+"),
    ("string", r'"(?:\\.|[^"\\])*"'),
    ("char", r"'(?:\\.|[^'\\])'"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("op", r"->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%=<>!&|^~?:.,;(){}\[\]]"),
]

_MASTER_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC), re.DOTALL
)


def tokenize(source: str) -> Iterator[Token]:
    """Tokenize mini-C source, skipping comments and preprocessor lines."""
    line = 1
    pos = 0
    length = len(source)
    while pos < length:
        match = _MASTER_RE.match(source, pos)
        if match is None:
            snippet = source[pos : pos + 20]
            raise LexError(f"line {line}: cannot tokenize {snippet!r}")
        kind = match.lastgroup
        text = match.group()
        pos = match.end()
        if kind == "newline":
            line += 1
            continue
        if kind in ("ws", "preproc"):
            continue
        if kind == "comment":
            line += text.count("\n")
            continue
        if kind == "ident" and text in KEYWORDS:
            yield Token("kw", text, line)
        else:
            assert kind is not None
            yield Token(kind, text, line)
            if kind in ("string", "char"):
                line += text.count("\n")
