"""Lexer for the mini-C subset used by the model-checking experiments."""

from __future__ import annotations

import re
from typing import NamedTuple


class LexError(ValueError):
    """Raised on input the lexer cannot tokenize."""


class Token(NamedTuple):
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

# One alternative per token kind, tried in order at each position.  A
# ``skip`` match is a run of whitespace, comments and preprocessor
# lines; the final ``error`` alternative matches any character the
# others reject, so ``finditer`` never steps over input silently.
_TOKEN_SPEC = [
    ("skip", r"(?:[ \t\r\n]+|/\*.*?\*/|//[^\n]*|\#[^\n]*)+"),
    ("number", r"0[xX][0-9a-fA-F]+|\d+"),
    ("string", r'"(?:\\.|[^"\\])*"'),
    ("char", r"'(?:\\.|[^'\\])'"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("op", r"->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%=<>!&|^~?:.,;(){}\[\]]"),
    ("error", r"."),
]

_MASTER_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC), re.DOTALL
)


def tokenize(source: str) -> list[Token]:
    """Tokenize mini-C source, skipping comments and preprocessor lines."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    # Branches in order of frequency on generated packages.
    for match in _MASTER_RE.finditer(source):
        kind = match.lastgroup
        if kind == "op":
            append(Token("op", match.group(), line))
        elif kind == "skip":
            # Add only at a line break: ``line += 0`` would make a new int
            # object, and the tokens (and AST nodes) of one line share one.
            newlines = match.group().count("\n")
            if newlines:
                line += newlines
        elif kind == "ident":
            text = match.group()
            append(Token("kw" if text in KEYWORDS else "ident", text, line))
        elif kind == "number":
            append(Token("number", match.group(), line))
        elif kind == "error":
            start = match.start()
            snippet = source[start : start + 20]
            raise LexError(f"line {line}: cannot tokenize {snippet!r}")
        else:
            # string or char literal: a backslash-newline inside it
            # moves every later token down a line
            text = match.group()
            append(Token(kind, text, line))  # type: ignore[arg-type]
            if "\n" in text:
                line += text.count("\n")
    return tokens
