"""Inclusion-based points-to analysis over mini-C, via set constraints.

The front half (:func:`extract_pointer_ops`) lowers a parsed program to
four primitive pointer operations over abstract *locations* —

* ``("addr",  dst, src)`` — ``dst = &src``
* ``("copy",  dst, src)`` — ``dst = src``
* ``("load",  dst, src)`` — ``dst = *src``
* ``("store", dst, src)`` — ``*dst = src``

— shared with the :class:`~repro.pointsto.naive.NaiveAndersen`
baseline, so both solvers answer for exactly the same abstraction:

* locations are function-scoped variables (``f::x``), per-site heap
  objects (``heap@line``), and per-function return slots;
* calls copy actuals to formals and the return slot to the use site
  (context-insensitive, as in classic Andersen);
* everything non-pointer is simply absorbed (no values, no effect).

The back half encodes the operations as set constraints with the
``ref(get, set)`` constructor — ``get`` covariant, ``set``
contravariant — and reads points-to sets out of the solved form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cfg import ast
from repro.core.solver import Solver
from repro.core.terms import Constructed, Constructor, Variable

#: One primitive pointer operation; operands are location names.
PointerOp = tuple[str, str, str]


@dataclass
class _Lowering:
    program: ast.Program
    ops: list[PointerOp] = field(default_factory=list)
    locations: set[str] = field(default_factory=set)
    _temps: itertools.count = field(default_factory=itertools.count)
    _functions: dict[str, ast.Function] = field(init=False)

    def __post_init__(self) -> None:
        # One lookup per call.  A redefined name keeps its first
        # definition, as ``Program.function`` does.
        self._functions = {}
        for definition in self.program.functions:
            self._functions.setdefault(definition.name, definition)

    def location(self, name: str) -> str:
        self.locations.add(name)
        return name

    def temp(self, function: str) -> str:
        return self.location(f"{function}::$t{next(self._temps)}")

    def local(self, function: str, name: str) -> str:
        return self.location(f"{function}::{name}")

    def return_slot(self, function: str) -> str:
        return self.location(f"{function}::$ret")

    # -- expression lowering: returns the location holding the value ------

    def value_of(self, function: str, expr: ast.Expr | None) -> str | None:
        """Lower an expression; return the location holding its value,
        or None for non-pointer-producing expressions."""
        if expr is None:
            return None
        if isinstance(expr, ast.Ident):
            return self.local(function, expr.name)
        if isinstance(expr, ast.Unary):
            if expr.op == "&" and isinstance(expr.operand, ast.Ident):
                temp = self.temp(function)
                self.ops.append(
                    ("addr", temp, self.local(function, expr.operand.name))
                )
                return temp
            if expr.op == "*":
                inner = self.value_of(function, expr.operand)
                if inner is None:
                    return None
                temp = self.temp(function)
                self.ops.append(("load", temp, inner))
                return temp
            return self.value_of(function, expr.operand)
        if isinstance(expr, ast.Assign):
            value = self.value_of(function, expr.value)
            self.assign(function, expr.target, value)
            return value
        if isinstance(expr, ast.Call):
            return self.call(function, expr)
        if isinstance(expr, ast.Binary):
            # Pointer arithmetic etc.: both sides evaluated, the
            # pointer-valued one (if any) is the result — conservative
            # join via a temp.
            left = self.value_of(function, expr.left)
            right = self.value_of(function, expr.right)
            if left is None:
                return right
            if right is None:
                return left
            temp = self.temp(function)
            self.ops.append(("copy", temp, left))
            self.ops.append(("copy", temp, right))
            return temp
        return None  # literals, strings

    def assign(
        self, function: str, target: ast.Expr | None, value: str | None
    ) -> None:
        if value is None or target is None:
            # still lower the target for its side effects
            if target is not None:
                self.value_of(function, target)
            return
        if isinstance(target, ast.Ident):
            self.ops.append(("copy", self.local(function, target.name), value))
            return
        if isinstance(target, ast.Unary) and target.op == "*":
            pointer = self.value_of(function, target.operand)
            if pointer is not None:
                self.ops.append(("store", pointer, value))
            return
        # struct fields / array cells: collapse onto the base object
        if isinstance(target, ast.Binary) and target.op in (".", "->", "[]"):
            base = self.value_of(function, target.left)
            if base is not None:
                if target.op == "->":
                    self.ops.append(("store", base, value))
                else:
                    self.ops.append(("copy", base, value))
            return
        self.value_of(function, target)

    def call(self, function: str, expr: ast.Call) -> str | None:
        if expr.callee == "malloc":
            for arg in expr.args:
                self.value_of(function, arg)
            heap = self.location(f"heap@{expr.line}")
            temp = self.temp(function)
            self.ops.append(("addr", temp, heap))
            return temp
        arg_values = [self.value_of(function, arg) for arg in expr.args]
        callee = self._functions.get(expr.callee)
        if callee is None:
            return None  # unknown primitive: no pointer effects
        for param, value in zip(callee.params, arg_values):
            if value is not None:
                self.ops.append(
                    ("copy", self.local(callee.name, param), value)
                )
        return self.return_slot(callee.name)

    # -- statement walk ------------------------------------------------------

    def statement(self, function: str, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.body:
                self.statement(function, inner)
        elif isinstance(stmt, ast.Decl):
            value = self.value_of(function, stmt.init)
            if value is not None:
                self.ops.append(("copy", self.local(function, stmt.name), value))
        elif isinstance(stmt, ast.ExprStmt):
            self.value_of(function, stmt.expr)
        elif isinstance(stmt, ast.If):
            self.value_of(function, stmt.cond)
            self.statement(function, stmt.then)
            if stmt.orelse is not None:
                self.statement(function, stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.value_of(function, stmt.cond)
            self.statement(function, stmt.body)
            if stmt.step is not None:
                self.statement(function, stmt.step)
        elif isinstance(stmt, ast.Switch):
            self.value_of(function, stmt.cond)
            for case in stmt.cases:
                for inner in case.body:
                    self.statement(function, inner)
        elif isinstance(stmt, ast.Return):
            value = self.value_of(function, stmt.value)
            if value is not None:
                self.ops.append(("copy", self.return_slot(function), value))
        # Break/Continue: no pointer effects

    def run(self) -> None:
        for definition in self.program.functions:
            for stmt in definition.body.body:
                self.statement(definition.name, stmt)


def extract_pointer_ops(
    program: ast.Program,
) -> tuple[list[PointerOp], set[str]]:
    """Lower a program to primitive pointer operations and locations.

    Flow-insensitive: statement order is irrelevant to the result, as
    in classic Andersen analysis."""
    lowering = _Lowering(program)
    lowering.run()
    return lowering.ops, lowering.locations


REF = Constructor("ref", 2, variance=(True, False))


class AndersenAnalysis:
    """Set-constraint Andersen analysis (``ref`` encoding, see module doc)."""

    def __init__(self, program: ast.Program | str):
        if isinstance(program, str):
            from repro.cfg.parser import parse_program

            program = parse_program(program)
        self.program = program
        self.ops, self.locations = extract_pointer_ops(program)
        self.solver = Solver()
        self._content: dict[str, Variable] = {}
        self._by_content_var: dict[Variable, str] = {}
        self._encode()

    def content_var(self, location: str) -> Variable:
        var = self._content.get(location)
        if var is None:
            var = Variable(f"pt::{location}")
            self._content[location] = var
            self._by_content_var[var] = location
        return var

    def _ref_term(self, location: str) -> Constructed:
        content = self.content_var(location)
        return REF(content, content)

    def _encode(self) -> None:
        solver = self.solver
        for kind, dst, src in self.ops:
            if kind == "addr":
                solver.add(self._ref_term(src), self.content_var(dst))
            elif kind == "copy":
                solver.add(self.content_var(src), self.content_var(dst))
            elif kind == "load":
                solver.add(
                    REF.proj(1, self.content_var(src)), self.content_var(dst)
                )
            elif kind == "store":
                # *dst = src: P ⊆ ref(⊤, Q); the contravariant second
                # field pours Q into every pointed-to location.
                top = self.solver.fresh("top")
                solver.add(
                    self.content_var(dst),
                    REF(top, self.content_var(src)),
                )
            else:  # pragma: no cover - defensive
                raise AssertionError(kind)

    # -- queries -----------------------------------------------------------------

    def points_to(self, location: str) -> frozenset[str]:
        """The abstract locations ``location`` may point to."""
        var = self._content.get(location)
        if var is None:
            return frozenset()
        result = set()
        for src, _ann in self.solver.lower_bounds(var):
            if src.constructor.name == "ref" and src.args:
                target = self._by_content_var.get(src.args[0])
                if target is not None:
                    result.add(target)
        return frozenset(result)

    def solution(self) -> dict[str, frozenset[str]]:
        """Points-to sets for every location."""
        return {location: self.points_to(location) for location in self.locations}

    def may_alias(self, left: str, right: str) -> bool:
        return bool(self.points_to(left) & self.points_to(right))
