"""Robustness fuzzing: parsers must parse or raise their own errors.

Random token soups and mutated valid programs must never crash with an
unexpected exception type — a front end that dies with IndexError on
malformed input is not production quality.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.lexer import LexError
from repro.cfg.parser import ParseError, parse_program
from repro.dfa.regex import RegexSyntaxError, regex_to_dfa
from repro.dfa.spec import SpecSyntaxError, parse_spec
from repro.flow.lang import FlowSyntaxError, parse_flow_program
from tests import reference_parser

_C_BINARY = [
    "||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=", "<<", ">>",
    "+", "-", "*", "/", "%",
]
_C_PREFIX = ["-", "!", "~", "*", "&", "++", "--"]

#: Every token the mini-C grammar has, plus comments, a preprocessor
#: line, both line endings and a character no token starts with.
C_TOKENS = [
    "int", "void", "char", "long", "unsigned", "static", "struct", "const",
    "if", "else", "while", "for", "return", "break", "continue", "switch",
    "case", "default",
    *_C_BINARY,
    "=", "?", ":", "!", "~", "++", "--", ".", "->",
    "(", ")", "[", "]", "{", "}", ";", ",",
    # identifiers and literals: decimal, hex, octal, invalid octal, char,
    # string with escaped quotes, string continued over a line break
    "x", "y", "f", "main", "0", "1", "42", "0x1F", "0755", "08",
    "'c'", "'\\n'", '"s"', '"a \\"q\\" b"', '"line \\\n continued"',
    # skipped text and line breaks
    "/* c */", "/* two\nlines */", "// c\n", "#include <x.h>\n", "\n", "\r\n",
    "`",
]


_C_ATOMS = ["x", "y", "42", "0x1F", "0755", "'c'", '"s"', "f ( x , 1 )"]
_C_POSTFIX = ["++", "--", "[ 0 ]", ". f", "-> g"]


def _c_expression(rng, depth=0):
    """A well-formed expression over every operator, with prefix and
    postfix chains and parenthesised subexpressions."""
    parts = []
    for index in range(rng.randint(1, 5)):
        if index:
            parts.append(rng.choice([*_C_BINARY, "=", "? y :"]))
        parts.extend(rng.choice(_C_PREFIX) for _ in range(rng.choice((0, 0, 1, 2))))
        if depth < 3 and rng.random() < 0.3:
            parts.append(f"( {_c_expression(rng, depth + 1)} )")
        else:
            parts.append(rng.choice(_C_ATOMS))
        parts.extend(rng.choice(_C_POSTFIX) for _ in range(rng.choice((0, 0, 1, 2))))
    return " ".join(parts)


FLOW_TOKENS = [
    "main", "f", "(", ")", ":", ";", "=", "int", "*", "->", ",", ".",
    "1", "2", "@", "^", "if", "then", "else", "let", "in", "x", "A",
]

SPEC_TOKENS = [
    "start", "accept", "state", "A", "B", ":", ";", "|", "->", "sym",
    "(", ")", "x", ",",
]


@given(st.integers(min_value=0, max_value=10**9), st.integers(2, 40))
@settings(max_examples=200, deadline=None)
def test_c_parser_never_crashes(seed, length):
    rng = random.Random(seed)
    source = " ".join(rng.choice(C_TOKENS) for _ in range(length))
    try:
        parse_program(source)
    except (ParseError, LexError):
        pass  # rejecting is fine; crashing is not


def _outcome(parse, source):
    try:
        return parse(source)
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))


@given(st.lists(st.sampled_from(C_TOKENS), max_size=40), st.booleans())
@settings(max_examples=400, deadline=None)
def test_c_parser_matches_reference(soup, in_function):
    """Same AST, or the same exception class and message, as the
    recursive-descent parser the precedence-climbing one replaced."""
    source = " ".join(soup)
    if in_function:
        source = f"int main() {{ {source} }}"
    assert _outcome(parse_program, source) == _outcome(
        reference_parser.parse_program, source
    )


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_c_expressions_match_reference(seed):
    """Precedence, associativity and postfix chains, where soups rarely
    get: the expression trees themselves must match."""
    rng = random.Random(seed)
    statements = [_c_expression(rng) for _ in range(3)]
    source = "int main() { " + " ".join(f"{text} ;" for text in statements) + " }"
    assert _outcome(parse_program, source) == _outcome(
        reference_parser.parse_program, source
    )


@given(st.integers(min_value=0, max_value=10**9), st.integers(2, 30))
@settings(max_examples=200, deadline=None)
def test_flow_parser_never_crashes(seed, length):
    rng = random.Random(seed)
    source = " ".join(rng.choice(FLOW_TOKENS) for _ in range(length))
    try:
        parse_flow_program(source)
    except FlowSyntaxError:
        pass


@given(st.integers(min_value=0, max_value=10**9), st.integers(2, 25))
@settings(max_examples=200, deadline=None)
def test_spec_parser_never_crashes(seed, length):
    rng = random.Random(seed)
    source = " ".join(rng.choice(SPEC_TOKENS) for _ in range(length))
    try:
        parse_spec(source)
    except SpecSyntaxError:
        pass


@given(st.text(alphabet="ab()|*+?<>\\", max_size=15))
@settings(max_examples=200, deadline=None)
def test_regex_parser_never_crashes(pattern):
    try:
        regex_to_dfa(pattern)
    except RegexSyntaxError:
        pass


@given(st.text(max_size=30))
@settings(max_examples=100, deadline=None)
def test_c_lexer_rejects_or_tokenizes_arbitrary_text(text):
    from repro.cfg.lexer import tokenize

    try:
        list(tokenize(text))
    except LexError:
        pass
