"""AST for the mini-C subset.

Only the control structure and call expressions matter to the analyses;
arithmetic is parsed but carried opaquely.  All nodes record the source
line for witness reporting.

Nodes are slotted values: equal when their fields are, hashed by them,
and never mutated once built.  They are not frozen, because a frozen
dataclass pays one ``object.__setattr__`` per field on construction,
and the parser builds one node per token or so.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class Expr:
    line: int = 0


@dataclass(slots=True, unsafe_hash=True)
class Number(Expr):
    value: int = 0


@dataclass(slots=True, unsafe_hash=True)
class String(Expr):
    value: str = ""


@dataclass(slots=True, unsafe_hash=True)
class Ident(Expr):
    name: str = ""


@dataclass(slots=True, unsafe_hash=True)
class Unary(Expr):
    op: str = ""
    operand: Expr | None = None


@dataclass(slots=True, unsafe_hash=True)
class Binary(Expr):
    op: str = ""
    left: Expr | None = None
    right: Expr | None = None


@dataclass(slots=True, unsafe_hash=True)
class Assign(Expr):
    target: Expr | None = None
    value: Expr | None = None


@dataclass(slots=True, unsafe_hash=True)
class Call(Expr):
    callee: str = ""
    args: tuple[Expr, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class Stmt:
    line: int = 0


@dataclass(slots=True, unsafe_hash=True)
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass(slots=True, unsafe_hash=True)
class Decl(Stmt):
    name: str = ""
    init: Expr | None = None


@dataclass(slots=True, unsafe_hash=True)
class Block(Stmt):
    body: tuple[Stmt, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class If(Stmt):
    cond: Expr | None = None
    then: Stmt | None = None
    orelse: Stmt | None = None


@dataclass(slots=True, unsafe_hash=True)
class While(Stmt):
    """A ``while`` loop, or a ``for`` loop's test, body and ``step``.

    A ``for (init; cond; step)`` loop parses to ``init`` then a
    ``While`` whose ``step`` runs after the body and after each
    ``continue``; a plain ``while`` has no step."""

    cond: Expr | None = None
    body: Stmt | None = None
    step: Stmt | None = None


@dataclass(slots=True, unsafe_hash=True)
class Case:
    """One ``case N:`` (or ``default:`` when value is None) arm."""

    value: int | None
    body: tuple["Stmt", ...]


@dataclass(slots=True, unsafe_hash=True)
class Switch(Stmt):
    cond: Expr | None = None
    cases: tuple[Case, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class Return(Stmt):
    value: Expr | None = None


@dataclass(slots=True, unsafe_hash=True)
class Break(Stmt):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Continue(Stmt):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Function:
    name: str
    params: tuple[str, ...]
    body: Block
    line: int = 0


@dataclass(slots=True, unsafe_hash=True)
class Program:
    functions: tuple[Function, ...] = ()

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)

    @property
    def function_names(self) -> set[str]:
        return {fn.name for fn in self.functions}


def calls_in(expr: Expr | None) -> list[Call]:
    """All call expressions inside ``expr``, in evaluation order.

    Arguments are visited left to right before the call itself (C's
    unspecified order pinned down deterministically); for assignments
    the value is visited before the target.
    """
    calls: list[Call] = []
    _collect_calls(expr, calls)
    return calls


def _collect_calls(expr: Expr | None, calls: list[Call]) -> None:
    if isinstance(expr, Binary):
        _collect_calls(expr.left, calls)
        _collect_calls(expr.right, calls)
    elif isinstance(expr, Call):
        for arg in expr.args:
            _collect_calls(arg, calls)
        calls.append(expr)
    elif isinstance(expr, Assign):
        _collect_calls(expr.value, calls)
        _collect_calls(expr.target, calls)
    elif isinstance(expr, Unary):
        _collect_calls(expr.operand, calls)
