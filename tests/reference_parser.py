"""Reference parser for the differential front-end tests.

The one-function-per-precedence-level recursive-descent parser that
preceded the precedence-climbing ``repro.cfg.parser``, kept as the
oracle it is checked against.  It builds the same ``repro.cfg.ast``
nodes and carries the one behavioural change made with that rewrite:
integer literals follow C's rules (``0x`` hex, leading ``0`` octal).

Recursive-descent parser for the mini-C subset.

Grammar (types are parsed and discarded — the analyses are untyped)::

    program  := function*
    function := type ident '(' params? ')' block
    params   := type ident (',' type ident)*
    block    := '{' stmt* '}'
    stmt     := block | if | while | for | return | break | continue
              | decl ';' | expr ';' | ';'
    decl     := type ident ('=' expr)?
    expr     := assignment with the usual C precedence levels
"""

from __future__ import annotations

from repro.cfg import ast
from tests.reference_lexer import Token, tokenize


class ParseError(ValueError):
    """Raised when the parser cannot make sense of the token stream."""


_TYPE_KEYWORDS = {"int", "void", "char", "long", "unsigned", "static", "struct", "const"}

# Binary operator precedence, loosest first.
_BINARY_LEVELS = [
    {"||"},
    {"&&"},
    {"|"},
    {"^"},
    {"&"},
    {"==", "!="},
    {"<", ">", "<=", ">="},
    {"<<", ">>"},
    {"+", "-"},
    {"*", "/", "%"},
]


class Parser:
    def __init__(self, source: str):
        self.tokens = list(tokenize(source))
        self.pos = 0

    # -- token plumbing --------------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        index = self.pos + offset
        if index < len(self.tokens):
            return self.tokens[index]
        return None

    def at(self, kind: str, value: str | None = None, offset: int = 0) -> bool:
        token = self.peek(offset)
        if token is None or token.kind != kind:
            return False
        return value is None or token.value == value

    def take(self, kind: str | None = None, value: str | None = None) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        if kind is not None and token.kind != kind:
            raise ParseError(
                f"line {token.line}: expected {kind}, found {token.value!r}"
            )
        if value is not None and token.value != value:
            raise ParseError(
                f"line {token.line}: expected {value!r}, found {token.value!r}"
            )
        self.pos += 1
        return token

    def _line(self) -> int:
        token = self.peek()
        return token.line if token is not None else 0

    # -- declarations ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        functions = []
        while self.peek() is not None:
            functions.append(self.parse_function())
        return ast.Program(tuple(functions))

    def _skip_type(self) -> None:
        took_any = False
        while self.at("kw") and self.peek().value in _TYPE_KEYWORDS:
            keyword = self.take("kw").value
            if keyword == "struct" and self.at("ident"):
                self.take("ident")
            took_any = True
        while self.at("op", "*"):
            self.take("op", "*")
        if not took_any:
            token = self.peek()
            where = f"line {token.line}: {token.value!r}" if token else "end of input"
            raise ParseError(f"expected a type, found {where}")

    def parse_function(self) -> ast.Function:
        line = self._line()
        self._skip_type()
        name = self.take("ident").value
        self.take("op", "(")
        params: list[str] = []
        if not self.at("op", ")"):
            if self.at("kw", "void") and self.at("op", ")", offset=1):
                self.take("kw", "void")
            else:
                params.append(self._parse_param())
                while self.at("op", ","):
                    self.take("op", ",")
                    params.append(self._parse_param())
        self.take("op", ")")
        body = self.parse_block()
        return ast.Function(name, tuple(params), body, line)

    def _parse_param(self) -> str:
        self._skip_type()
        return self.take("ident").value

    # -- statements ----------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        line = self._line()
        self.take("op", "{")
        body: list[ast.Stmt] = []
        while not self.at("op", "}"):
            body.append(self.parse_stmt())
        self.take("op", "}")
        return ast.Block(line, tuple(body))

    def parse_stmt(self) -> ast.Stmt:
        line = self._line()
        if self.at("op", "{"):
            return self.parse_block()
        if self.at("op", ";"):
            self.take("op", ";")
            return ast.Block(line, ())
        if self.at("kw", "if"):
            return self._parse_if()
        if self.at("kw", "while"):
            return self._parse_while()
        if self.at("kw", "for"):
            return self._parse_for()
        if self.at("kw", "switch"):
            return self._parse_switch()
        if self.at("kw", "return"):
            self.take("kw", "return")
            value = None
            if not self.at("op", ";"):
                value = self.parse_expr()
            self.take("op", ";")
            return ast.Return(line, value)
        if self.at("kw", "break"):
            self.take("kw", "break")
            self.take("op", ";")
            return ast.Break(line)
        if self.at("kw", "continue"):
            self.take("kw", "continue")
            self.take("op", ";")
            return ast.Continue(line)
        if self.at("kw") and self.peek().value in _TYPE_KEYWORDS:
            self._skip_type()
            name = self.take("ident").value
            init = None
            if self.at("op", "="):
                self.take("op", "=")
                init = self.parse_expr()
            self.take("op", ";")
            return ast.Decl(line, name, init)
        expr = self.parse_expr()
        self.take("op", ";")
        return ast.ExprStmt(line, expr)

    def _parse_if(self) -> ast.If:
        line = self._line()
        self.take("kw", "if")
        self.take("op", "(")
        cond = self.parse_expr()
        self.take("op", ")")
        then = self.parse_stmt()
        orelse = None
        if self.at("kw", "else"):
            self.take("kw", "else")
            orelse = self.parse_stmt()
        return ast.If(line, cond, then, orelse)

    def _parse_while(self) -> ast.While:
        line = self._line()
        self.take("kw", "while")
        self.take("op", "(")
        cond = self.parse_expr()
        self.take("op", ")")
        body = self.parse_stmt()
        return ast.While(line, cond, body)

    def _parse_switch(self) -> ast.Switch:
        line = self._line()
        self.take("kw", "switch")
        self.take("op", "(")
        cond = self.parse_expr()
        self.take("op", ")")
        self.take("op", "{")
        cases: list[ast.Case] = []
        while not self.at("op", "}"):
            if self.at("kw", "case"):
                self.take("kw", "case")
                token = self.take("number")
                value: int | None = _int_literal(token)
            elif self.at("kw", "default"):
                self.take("kw", "default")
                value = None
            else:
                raise ParseError(
                    f"line {self._line()}: expected 'case' or 'default'"
                )
            self.take("op", ":")
            body: list[ast.Stmt] = []
            while not (
                self.at("op", "}") or self.at("kw", "case") or self.at("kw", "default")
            ):
                body.append(self.parse_stmt())
            cases.append(ast.Case(value, tuple(body)))
        self.take("op", "}")
        return ast.Switch(line, cond, tuple(cases))

    def _parse_for(self) -> ast.Stmt:
        # ``for (init; cond; step) body`` desugars to init; while.
        line = self._line()
        self.take("kw", "for")
        self.take("op", "(")
        init: ast.Stmt | None = None
        if not self.at("op", ";"):
            if self.at("kw") and self.peek().value in _TYPE_KEYWORDS:
                self._skip_type()
                name = self.take("ident").value
                value = None
                if self.at("op", "="):
                    self.take("op", "=")
                    value = self.parse_expr()
                init = ast.Decl(line, name, value)
            else:
                init = ast.ExprStmt(line, self.parse_expr())
        self.take("op", ";")
        cond: ast.Expr | None = None
        if not self.at("op", ";"):
            cond = self.parse_expr()
        self.take("op", ";")
        step: ast.Stmt | None = None
        if not self.at("op", ")"):
            step = ast.ExprStmt(line, self.parse_expr())
        self.take("op", ")")
        body = self.parse_stmt()
        loop_body = ast.Block(line, tuple(s for s in (body, step) if s is not None))
        cond_expr = cond if cond is not None else ast.Number(line, 1)
        loop = ast.While(line, cond_expr, loop_body)
        if init is None:
            return loop
        return ast.Block(line, (init, loop))

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_ternary()
        if self.at("op", "="):
            line = self.take("op", "=").line
            value = self._parse_assignment()
            return ast.Assign(line, left, value)
        return left

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self.at("op", "?"):
            line = self.take("op", "?").line
            then = self.parse_expr()
            self.take("op", ":")
            orelse = self._parse_ternary()
            # Model a ternary as two nested binaries: both sides parsed,
            # condition retained — control flow inside ternaries is not
            # tracked (the analyses treat expressions atomically).
            return ast.Binary(line, "?:", cond, ast.Binary(line, ":", then, orelse))
        return cond

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        while self.at("op") and self.peek().value in _BINARY_LEVELS[level]:
            op = self.take("op")
            right = self._parse_binary(level + 1)
            left = ast.Binary(op.line, op.value, left, right)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self.at("op") and self.peek().value in ("-", "!", "~", "*", "&", "++", "--"):
            op = self.take("op")
            return ast.Unary(op.line, op.value, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self.at("op", "("):
                if not isinstance(expr, ast.Ident):
                    raise ParseError(
                        f"line {self._line()}: only direct calls are supported"
                    )
                self.take("op", "(")
                args: list[ast.Expr] = []
                if not self.at("op", ")"):
                    args.append(self.parse_expr())
                    while self.at("op", ","):
                        self.take("op", ",")
                        args.append(self.parse_expr())
                close = self.take("op", ")")
                expr = ast.Call(close.line, expr.name, tuple(args))
            elif self.at("op", "[") :
                self.take("op", "[")
                index = self.parse_expr()
                bracket = self.take("op", "]")
                expr = ast.Binary(bracket.line, "[]", expr, index)
            elif self.at("op", "++") or self.at("op", "--"):
                op = self.take("op")
                expr = ast.Unary(op.line, op.value + "post", expr)
            elif self.at("op", ".") or self.at("op", "->"):
                op = self.take("op")
                field = self.take("ident")
                expr = ast.Binary(op.line, op.value, expr, ast.Ident(field.line, field.value))
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input in expression")
        if token.kind == "number":
            self.take("number")
            return ast.Number(token.line, _int_literal(token))
        if token.kind == "string":
            self.take("string")
            return ast.String(token.line, token.value[1:-1])
        if token.kind == "char":
            self.take("char")
            return ast.Number(token.line, 0)
        if token.kind == "ident":
            self.take("ident")
            return ast.Ident(token.line, token.value)
        if token.kind == "op" and token.value == "(":
            self.take("op", "(")
            expr = self.parse_expr()
            self.take("op", ")")
            return expr
        raise ParseError(f"line {token.line}: unexpected token {token.value!r}")


def _int_literal(token: Token) -> int:
    text = token.value
    try:
        if text[:2] in ("0x", "0X"):
            return int(text, 16)
        if text[0] == "0":
            return int(text, 8)
        return int(text)
    except ValueError:
        raise ParseError(
            f"line {token.line}: invalid integer literal {text!r}"
        ) from None


def parse_program(source: str) -> ast.Program:
    """Parse mini-C source text into a :class:`repro.cfg.ast.Program`."""
    return Parser(source).parse_program()
