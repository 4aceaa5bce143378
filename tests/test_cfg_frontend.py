"""Tests for the mini-C lexer, parser, and AST utilities."""

import pytest

from repro.cfg import ast
from repro.cfg.lexer import LexError, Token, tokenize
from repro.cfg.parser import ParseError, parse_program
from repro.synth import TABLE1_PACKAGES, PackageSpec, edit_stream, generate_package
from tests import reference_parser


class TestLexer:
    def test_basic_tokens(self):
        tokens = list(tokenize("int x = 42;"))
        kinds = [t.kind for t in tokens]
        assert kinds == ["kw", "ident", "op", "number", "op"]

    def test_comments_skipped(self):
        tokens = list(tokenize("x; // comment\n/* block\ncomment */ y;"))
        idents = [t.value for t in tokens if t.kind == "ident"]
        assert idents == ["x", "y"]

    def test_preprocessor_skipped(self):
        tokens = list(tokenize("#include <stdio.h>\nint x;"))
        assert tokens[0].value == "int"

    def test_line_numbers(self):
        tokens = list(tokenize("a;\nb;\n\nc;"))
        lines = {t.value: t.line for t in tokens if t.kind == "ident"}
        assert lines == {"a": 1, "b": 2, "c": 4}

    def test_strings_and_chars(self):
        tokens = list(tokenize('f("hi \\"there\\"", \'x\');'))
        kinds = [t.kind for t in tokens]
        assert "string" in kinds and "char" in kinds

    def test_hex_numbers(self):
        tokens = list(tokenize("x = 0xFF;"))
        assert any(t.kind == "number" and t.value == "0xFF" for t in tokens)

    def test_lex_error(self):
        with pytest.raises(LexError):
            list(tokenize("int x = `;"))

    def test_lex_error_message(self):
        with pytest.raises(LexError, match=r"^line 2: cannot tokenize '`;'$"):
            tokenize("int y;\nint x = `;")

    def test_line_numbers_after_continued_string(self):
        tokens = tokenize('log("started \\\n  now");\nseteuid(0);')
        assert tokens[2] == Token("string", '"started \\\n  now"', 1)
        assert [(t.value, t.line) for t in tokens[3:6]] == [(")", 2), (";", 2), ("seteuid", 3)]

    def test_tokens_are_tuples(self):
        assert tokenize("x") == [Token("ident", "x", 1)]
        assert Token._fields == ("kind", "value", "line")


class TestParser:
    def test_function_structure(self):
        program = parse_program("int main() { return 0; }")
        assert program.function_names == {"main"}
        main = program.function("main")
        assert main.params == ()

    def test_params(self):
        program = parse_program("void f(int a, char *b) { }")
        assert program.function("f").params == ("a", "b")

    def test_void_param_list(self):
        program = parse_program("void f(void) { }")
        assert program.function("f").params == ()

    def test_if_else(self):
        program = parse_program(
            "int main() { if (x) { a(); } else { b(); } return 0; }"
        )
        body = program.function("main").body.body
        assert isinstance(body[0], ast.If)
        assert body[0].orelse is not None

    def test_while_and_control(self):
        program = parse_program(
            "int main() { while (1) { if (x) break; continue; } }"
        )
        loop = program.function("main").body.body[0]
        assert isinstance(loop, ast.While)

    def test_for_desugars_to_while(self):
        program = parse_program(
            "int main() { for (int i = 0; i < 10; i = i + 1) { f(i); } }"
        )
        outer = program.function("main").body.body[0]
        assert isinstance(outer, ast.Block)
        assert isinstance(outer.body[0], ast.Decl)
        assert isinstance(outer.body[1], ast.While)

    def test_expression_precedence(self):
        program = parse_program("int main() { x = 1 + 2 * 3; }")
        stmt = program.function("main").body.body[0]
        assign = stmt.expr
        assert isinstance(assign, ast.Assign)
        assert isinstance(assign.value, ast.Binary)
        assert assign.value.op == "+"
        assert assign.value.right.op == "*"

    def test_calls_with_nested_args(self):
        program = parse_program("int main() { f(g(1), h()); }")
        calls = list(ast.calls_in(program.function("main").body.body[0].expr))
        assert [c.callee for c in calls] == ["g", "h", "f"]

    def test_unary_and_postfix(self):
        parse_program("int main() { x = -y; p = &z; *p = 1; i++; a[i] = 2; }")

    def test_struct_members(self):
        parse_program("int main() { s.field = p->other; }")

    def test_ternary(self):
        parse_program("int main() { x = c ? a : b; }")

    def test_unreachable_code_tolerated(self):
        parse_program("int main() { return 0; x = 1; }")

    @pytest.mark.parametrize(
        "literal, value", [("0755", 0o755), ("0", 0), ("0x1F", 31), ("0X1f", 31), ("42", 42)]
    )
    def test_integer_literals_follow_c(self, literal, value):
        program = parse_program(f"int main() {{ x = {literal}; }}")
        assert program.function("main").body.body[0].expr.value == ast.Number(1, value)

    def test_octal_case_label(self):
        program = parse_program(
            "int main() {\n switch (m) { case 010: f(); break; default: g(); }\n}"
        )
        switch = program.function("main").body.body[0]
        assert [case.value for case in switch.cases] == [8, None]

    @pytest.mark.parametrize(
        "source", ["int main() {\n  x = 08;\n}", "int main() {\n  switch (m) { case 09: ; }\n}"]
    )
    def test_invalid_octal_is_a_parse_error(self, source):
        with pytest.raises(ParseError, match=r"^line 2: invalid integer literal '0[89]'$"):
            parse_program(source)

    @pytest.mark.parametrize(
        "source",
        [
            "int main() { ",
            "main() { }",
            "int main() { x = ; }",
            "int main() { if x { } }",
            "int main() { x[0](); }",  # only direct calls
        ],
    )
    def test_parse_errors(self, source):
        with pytest.raises(ParseError):
            parse_program(source)


class TestCallsIn:
    def test_evaluation_order(self):
        program = parse_program("int main() { x = a(b(), c()) + d(); }")
        stmt = program.function("main").body.body[0]
        calls = [c.callee for c in ast.calls_in(stmt.expr)]
        assert calls == ["b", "c", "a", "d"]


def _table1_at_1k_lines():
    return [
        PackageSpec(
            spec.name,
            1_000,
            max(8, spec.n_functions * 1_000 // spec.target_lines),
            seed=spec.seed,
            violation=spec.violation,
        )
        for spec in TABLE1_PACKAGES
    ]


class TestMatchesReference:
    """The parser builds the same ASTs as the recursive-descent parser it
    replaced (``tests/reference_parser.py``) on generated packages."""

    @pytest.mark.parametrize("spec", _table1_at_1k_lines(), ids=lambda spec: spec.name)
    def test_table1_packages(self, spec):
        source = generate_package(spec)
        assert parse_program(source) == reference_parser.parse_program(source)

    def test_edit_stream(self):
        spec = PackageSpec("edits", 1_000, 14, seed=4)
        for step in edit_stream(spec, 3):
            assert parse_program(step.source) == reference_parser.parse_program(step.source)
