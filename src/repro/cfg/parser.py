"""Parser for the mini-C subset.

Statements are parsed by recursive descent, expressions by precedence
climbing: one loop over the binary-operator table ``_PRECEDENCE``
rather than one function per precedence level.

Grammar (types are parsed and discarded — the analyses are untyped)::

    program  := function*
    function := type ident '(' params? ')' block
    params   := type ident (',' type ident)*
    block    := '{' stmt* '}'
    stmt     := block | if | while | for | return | break | continue
              | decl ';' | expr ';' | ';'
    decl     := type ident ('=' expr)?
    expr     := assignment with the usual C precedence levels

Integer literals follow C: ``0x`` hex, a leading ``0`` octal, otherwise
decimal.
"""

from __future__ import annotations

from repro.cfg import ast
from repro.cfg.lexer import Token, tokenize


class ParseError(ValueError):
    """Raised when the parser cannot make sense of the token stream."""


_TYPE_KEYWORDS = {"int", "void", "char", "long", "unsigned", "static", "struct", "const"}

# Binary operator precedence: a higher number binds tighter.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_PREFIX_OPS = {"-", "!", "~", "*", "&", "++", "--"}


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing --------------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        index = self.pos + offset
        if index < len(self.tokens):
            return self.tokens[index]
        return None

    def at(self, kind: str, value: str | None = None, offset: int = 0) -> bool:
        index = self.pos + offset
        if index >= len(self.tokens):
            return False
        token = self.tokens[index]
        return token.kind == kind and (value is None or token.value == value)

    def take(self, kind: str | None = None, value: str | None = None) -> Token:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input")
        token = self.tokens[self.pos]
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
        return self.tokens[self.pos].line if self.pos < len(self.tokens) else 0

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
        """One statement, dispatched on one read of its first token."""
        tokens = self.tokens
        pos = self.pos
        if pos >= len(tokens):
            # what the expression statement's parse reports here
            raise ParseError("unexpected end of input in expression")
        kind, value, line = tokens[pos]
        if kind == "kw":
            if value in _TYPE_KEYWORDS:
                decl = self._parse_decl(line)
                self.take("op", ";")
                return decl
            parse = _KEYWORD_STATEMENTS.get(value)
            if parse is not None:
                self.pos = pos + 1
                return parse(self, line)
        elif kind == "op":
            if value == "{":
                return self.parse_block()
            if value == ";":
                self.pos = pos + 1
                return ast.Block(line, ())
        expr = self.parse_expr()
        self.take("op", ";")
        return ast.ExprStmt(line, expr)

    # Each ``_parse_<keyword>`` starts after its keyword, at ``line``.

    def _parse_decl(self, line: int) -> ast.Decl:
        self._skip_type()
        name = self.take("ident").value
        init = None
        if self.at("op", "="):
            self.pos += 1
            init = self.parse_expr()
        return ast.Decl(line, name, init)

    def _parse_condition(self) -> ast.Expr:
        self.take("op", "(")
        cond = self.parse_expr()
        self.take("op", ")")
        return cond

    def _parse_if(self, line: int) -> ast.If:
        cond = self._parse_condition()
        then = self.parse_stmt()
        orelse = None
        if self.at("kw", "else"):
            self.pos += 1
            orelse = self.parse_stmt()
        return ast.If(line, cond, then, orelse)

    def _parse_while(self, line: int) -> ast.While:
        cond = self._parse_condition()
        return ast.While(line, cond, self.parse_stmt())

    def _parse_switch(self, line: int) -> ast.Switch:
        cond = self._parse_condition()
        self.take("op", "{")
        cases: list[ast.Case] = []
        while not self.at("op", "}"):
            if self.at("kw", "case"):
                self.pos += 1
                value: int | None = _int_literal(self.take("number"))
            elif self.at("kw", "default"):
                self.pos += 1
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

    def _parse_for(self, line: int) -> ast.Stmt:
        # ``for (init; cond; step) body`` is ``init`` then a ``While``
        # that keeps the step apart, for ``continue`` to run it.
        self.take("op", "(")
        init: ast.Stmt | None = None
        if not self.at("op", ";"):
            if self.at("kw") and self.peek().value in _TYPE_KEYWORDS:
                init = self._parse_decl(line)
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
        cond_expr = cond if cond is not None else ast.Number(line, 1)
        loop = ast.While(line, cond_expr, body, step)
        if init is None:
            return loop
        return ast.Block(line, (init, loop))

    def _parse_return(self, line: int) -> ast.Return:
        value = None
        if not self.at("op", ";"):
            value = self.parse_expr()
        self.take("op", ";")
        return ast.Return(line, value)

    def _parse_break(self, line: int) -> ast.Break:
        self.take("op", ";")
        return ast.Break(line)

    def _parse_continue(self, line: int) -> ast.Continue:
        self.take("op", ";")
        return ast.Continue(line)

    # -- expressions -------------------------------------------------------------
    #
    # The hot path indexes ``self.tokens`` directly.  It compares token
    # values without their kinds: only ``op`` tokens can spell an
    # operator or a bracket, so the value alone decides.

    def parse_expr(self) -> ast.Expr:
        """``assignment := ternary ('=' assignment)?``"""
        left = self._parse_ternary()
        tokens = self.tokens
        pos = self.pos
        if pos < len(tokens) and tokens[pos].value == "=":
            self.pos = pos + 1
            return ast.Assign(tokens[pos].line, left, self.parse_expr())
        return left

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        tokens = self.tokens
        pos = self.pos
        if pos < len(tokens) and tokens[pos].value == "?":
            line = tokens[pos].line
            self.pos = pos + 1
            then = self.parse_expr()
            self.take("op", ":")
            orelse = self._parse_ternary()
            # Model a ternary as two nested binaries: both sides parsed,
            # condition retained — control flow inside ternaries is not
            # tracked (the analyses treat expressions atomically).
            return ast.Binary(line, "?:", cond, ast.Binary(line, ":", then, orelse))
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        """Precedence climbing over ``_PRECEDENCE``: a unary operand, then
        every left-associative operator binding at least ``min_prec``,
        each with a right operand of the operators binding tighter."""
        left = self._parse_unary()
        tokens = self.tokens
        count = len(tokens)
        while self.pos < count:
            op = tokens[self.pos]
            prec = _PRECEDENCE.get(op.value)
            if prec is None or prec < min_prec:
                break
            self.pos += 1
            right = self._parse_binary(prec + 1)
            left = ast.Binary(op.line, op.value, left, right)
        return left

    def _parse_unary(self) -> ast.Expr:
        """Prefix operators, a primary expression, then postfix operators."""
        tokens = self.tokens
        pos = self.pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input in expression")
        token = tokens[pos]
        kind, value, line = token
        pos += 1
        expr: ast.Expr
        if kind == "ident":
            expr = ast.Ident(line, value)
        elif kind == "number":
            expr = ast.Number(line, _int_literal(token))
        elif value in _PREFIX_OPS:
            self.pos = pos
            return ast.Unary(line, value, self._parse_unary())
        elif value == "(":
            self.pos = pos
            expr = self.parse_expr()
            self.take("op", ")")
            pos = self.pos
        elif kind == "string":
            expr = ast.String(line, value[1:-1])
        elif kind == "char":
            expr = ast.Number(line, 0)
        else:
            raise ParseError(f"line {line}: unexpected token {value!r}")
        count = len(tokens)
        while pos < count:
            op = tokens[pos]
            value = op.value
            if value == "(":
                if not isinstance(expr, ast.Ident):
                    raise ParseError(f"line {op.line}: only direct calls are supported")
                args: list[ast.Expr] = []
                pos += 1
                if pos >= count or tokens[pos].value != ")":
                    self.pos = pos
                    args.append(self.parse_expr())
                    pos = self.pos
                    while pos < count and tokens[pos].value == ",":
                        self.pos = pos + 1
                        args.append(self.parse_expr())
                        pos = self.pos
                self.pos = pos
                close = self.take("op", ")")
                expr = ast.Call(close.line, expr.name, tuple(args))
            elif value == "[":
                self.pos = pos + 1
                index = self.parse_expr()
                bracket = self.take("op", "]")
                expr = ast.Binary(bracket.line, "[]", expr, index)
            elif value == "++" or value == "--":
                self.pos = pos + 1
                expr = ast.Unary(op.line, value + "post", expr)
            elif value == "." or value == "->":
                self.pos = pos + 1
                field = self.take("ident")
                expr = ast.Binary(op.line, value, expr, ast.Ident(field.line, field.value))
            else:
                break
            pos = self.pos
        self.pos = pos
        return expr


#: The statements a keyword other than a type starts, by keyword.
_KEYWORD_STATEMENTS = {
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "for": Parser._parse_for,
    "switch": Parser._parse_switch,
    "return": Parser._parse_return,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
}


def _int_literal(token: Token) -> int:
    """The value of an integer literal by C's rules: ``0x`` hex, a
    leading ``0`` octal, anything else decimal."""
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
