"""Lexer for the mini-C subset used by the model-checking experiments."""

from __future__ import annotations

import itertools
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

# One match per token, with its one group the token itself.  The
# ungrouped prefix skips blanks and at most one one-line comment or
# preprocessor line, which runs to the line break.  A line break and a
# block comment are captured, so the loop can count lines.  Identifiers
# and operators come first, as the most frequent; the block comment
# comes before the ``/`` operator, and the final ``.`` takes any
# character no token starts with, so the group never fails after the
# prefix and ``findall`` never backtracks into it.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?://[^\n]*|\#[^\n]*)?"
    r"([A-Za-z_][A-Za-z0-9_]*"
    r"|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||/\*.*?\*/|[-+*/%=<>!&|^~?:.,;(){}\[\]]"
    r"|\n"
    r"|0[xX][0-9a-fA-F]+|\d+"
    r'|"(?:\\.|[^"\\])*"'
    r"|'(?:\\.|[^'\\])'"
    r"|.)",
    re.DOTALL,
)

# The kind of a token, by its first character, for the kinds whose
# first character decides it.  ``/`` starts both an operator and a
# block comment, and ``"`` and ``'`` start a literal or, alone, an
# error, so those take the slow path with the line breaks.
_KINDS = dict.fromkeys(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident"
)
_KINDS.update(dict.fromkeys("-+*%=<>!&|^~?:.,;(){}[]", "op"))
_KINDS.update(dict.fromkeys("0123456789", "number"))


def tokenize(source: str) -> list[Token]:
    """Tokenize mini-C source, skipping comments and preprocessor lines."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    kinds = _KINDS
    keywords = KEYWORDS
    line = 1
    # A final line break ends any trailing blanks or comment, so every
    # match ends in a token: without it, the empty tail would let the
    # regex give a blank back to the final ``.``.
    pieces = _TOKEN_RE.findall(source + "\n")
    for text in pieces:
        first = text[0]
        kind = kinds.get(first)
        if kind is None:
            if first == "\n":
                # Add only at a line break: the tokens (and AST nodes)
                # of one line share one int.
                line += 1
                continue
            if first == "/":
                if text == "/":
                    append(new(Token, ("op", text, line)))
                else:
                    line += text.count("\n")  # a block comment
                continue
            if first == '"' and len(text) > 1:
                kind = "string"
            elif first == "'" and len(text) > 1:
                kind = "char"
            elif first.isdecimal():
                kind = "number"  # a non-ASCII digit, which ``\d`` takes
            else:
                raise _lex_error(source, pieces.index(text), line)
            append(new(Token, (kind, text, line)))
            # a backslash-newline inside a literal moves every later
            # token down a line
            if "\n" in text:
                line += text.count("\n")
            continue
        if kind == "ident" and text in keywords:
            kind = "kw"
        append(new(Token, (kind, text, line)))
    return tokens


def _lex_error(source: str, index: int, line: int) -> LexError:
    """The error for the ``index``-th match, which no token accepts.

    No token's text is a character no token accepts, so the first match
    with that text is the failing one; ``finditer`` gives its offset."""
    match = next(itertools.islice(_TOKEN_RE.finditer(source + "\n"), index, None))
    start = match.start(1)
    snippet = source[start : start + 20]
    return LexError(f"line {line}: cannot tokenize {snippet!r}")
