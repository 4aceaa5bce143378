"""Interprocedural control-flow graph data structures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.cfg import ast


class MissingMainError(KeyError, ValueError):
    """The program has no ``main`` function, so no whole-program
    analysis can start from it.

    A ``ValueError``, like the lexer's and the parser's errors, so the
    CLI and the service refuse the program as a front-end error; a
    ``KeyError`` for the callers that look ``main`` up by name."""

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


@dataclass(slots=True, unsafe_hash=True)
class CFGNode:
    """One control-flow node: a slotted value, never mutated once built.

    ``kind`` is one of:

    * ``"entry"`` / ``"exit"`` — a function's entry and exit points;
    * ``"call"`` — a call to a *defined* function, with its global call
      ``site`` number (the ``i`` of the ``o_i`` constructor);
    * ``"stmt"`` — anything else: primitive calls (``call`` holds the
      call expression, for property-event mapping), declarations and
      plain statements (``stmt`` holds the AST node).

    For call nodes, ``owner`` is the statement the call occurs in, so
    event mappers can recover context such as the variable a result is
    assigned to (the file-descriptor labels of Section 6.4).
    """

    id: int
    function: str
    kind: str
    call: ast.Call | None = None
    stmt: ast.Stmt | None = None
    site: int | None = None
    line: int = 0
    owner: ast.Stmt | None = None

    def describe(self) -> str:
        if self.kind == "entry":
            return f"{self.function}:entry"
        if self.kind == "exit":
            return f"{self.function}:exit"
        if self.call is not None:
            args = ", ".join(_brief(a) for a in self.call.args)
            return f"{self.function}:{self.line}: {self.call.callee}({args})"
        return f"{self.function}:{self.line}"


def _brief(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Number):
        return str(expr.value)
    if isinstance(expr, ast.String):
        return f'"{expr.value}"'
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.Call):
        return f"{expr.callee}(...)"
    return "..."


@dataclass
class FunctionCFG:
    name: str
    entry: CFGNode
    exit: CFGNode
    nodes: list[CFGNode] = field(default_factory=list)


@dataclass
class ProgramCFG:
    """A whole-program CFG: per-function graphs plus call-site table."""

    functions: dict[str, FunctionCFG] = field(default_factory=dict)
    nodes: dict[int, CFGNode] = field(default_factory=dict)
    _succ: dict[int, list[int]] = field(default_factory=dict)
    _pred: dict[int, list[int]] = field(default_factory=dict)
    call_sites: dict[int, tuple[CFGNode, str]] = field(default_factory=dict)

    def add_node(self, node: CFGNode) -> CFGNode:
        self.nodes[node.id] = node
        return node

    def add_edge(self, src: CFGNode, dst: CFGNode) -> None:
        successors = self._succ.setdefault(src.id, [])
        if dst.id not in successors:
            successors.append(dst.id)
            self._pred.setdefault(dst.id, []).append(src.id)

    def successors(self, node: CFGNode) -> Iterator[CFGNode]:
        for node_id in self._succ.get(node.id, ()):
            yield self.nodes[node_id]

    def predecessors(self, node: CFGNode) -> Iterator[CFGNode]:
        for node_id in self._pred.get(node.id, ()):
            yield self.nodes[node_id]

    @property
    def main(self) -> FunctionCFG:
        if "main" not in self.functions:
            raise MissingMainError("program has no main function")
        return self.functions["main"]

    def all_nodes(self) -> Iterator[CFGNode]:
        yield from self.nodes.values()

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(len(v) for v in self._succ.values())


def reverse_cfg(cfg: "ProgramCFG") -> "ProgramCFG":
    """The reversed program CFG, for backward dataflow analyses.

    Nodes are shared; every edge is flipped and every function's
    entry/exit pair is swapped.  Forward analysis machinery run on the
    reversed graph computes backward facts: the Section 6 call encoding
    dualizes cleanly (facts enter a callee through its old exit and
    leave through its old entry), so both the annotation-based and the
    functional dataflow solvers work unchanged.
    """
    reversed_cfg = ProgramCFG()
    reversed_cfg.nodes = dict(cfg.nodes)
    reversed_cfg.call_sites = dict(cfg.call_sites)
    for name, function in cfg.functions.items():
        reversed_cfg.functions[name] = FunctionCFG(
            name=name,
            entry=function.exit,
            exit=function.entry,
            nodes=list(function.nodes),
        )
    for node in cfg.all_nodes():
        for succ in cfg.successors(node):
            reversed_cfg.add_edge(succ, node)
    return reversed_cfg
