"""AST → interprocedural CFG construction.

Each statement expands to one node per contained call (in evaluation
order) followed by a node for the statement itself; conditions
contribute their call nodes before the branch.  Calls to *defined*
functions become ``"call"`` nodes carrying a globally unique call-site
number — the ``i`` of the ``o_i`` constructors in the Section 6
encoding; calls to unknown functions are primitives, kept as ``"stmt"``
nodes for the property-event mapper.
"""

from __future__ import annotations

import itertools

from repro.cfg import ast
from repro.cfg.graph import CFGNode, FunctionCFG, ProgramCFG


class _Builder:
    def __init__(self, program: ast.Program):
        self.program = program
        self.defined = program.function_names
        self.cfg = ProgramCFG()
        self._ids = itertools.count()
        self._sites = itertools.count(1)
        #: Nodes per function name, in creation order, collected as
        #: :meth:`_node` makes them.  Keyed by name, not definition: a
        #: redefined function's ``FunctionCFG.nodes`` also lists the
        #: earlier definition's nodes.
        self._fn_nodes: dict[str, list[CFGNode]] = {}

    def build(self) -> ProgramCFG:
        for function in self.program.functions:
            self._build_function(function)
        return self.cfg

    # -- helpers -----------------------------------------------------------------

    def _node(self, function: str, kind: str, **kwargs) -> CFGNode:
        node = CFGNode(id=next(self._ids), function=function, kind=kind, **kwargs)
        self._fn_nodes.setdefault(function, []).append(node)
        return self.cfg.add_node(node)

    def _connect(self, preds: list[CFGNode], node: CFGNode) -> None:
        for pred in preds:
            self.cfg.add_edge(pred, node)

    # -- functions ---------------------------------------------------------------

    def _build_function(self, function: ast.Function) -> None:
        entry = self._node(function.name, "entry", line=function.line)
        exit_node = self._node(function.name, "exit", line=function.line)
        fcfg = FunctionCFG(function.name, entry, exit_node)
        self.cfg.functions[function.name] = fcfg
        self._current_fn = function.name
        self._exit = exit_node
        self._continue_targets: list[CFGNode] = []
        self._break_frames: list[list[CFGNode]] = []
        frontier = self._build_stmt(function.body, [entry])
        self._connect(frontier, exit_node)
        fcfg.nodes = list(self._fn_nodes[function.name])

    # -- expressions --------------------------------------------------------------

    def _expr_nodes(
        self,
        expr: ast.Expr | None,
        preds: list[CFGNode],
        owner: ast.Stmt | None = None,
    ) -> list[CFGNode]:
        """Thread call nodes for every call inside ``expr``."""
        for call in ast.calls_in(expr):
            if call.callee in self.defined:
                node = self._node(
                    self._current_fn,
                    "call",
                    call=call,
                    site=next(self._sites),
                    line=call.line,
                    owner=owner,
                )
                self.cfg.call_sites[node.site] = (node, call.callee)
            else:
                node = self._node(
                    self._current_fn, "stmt", call=call, line=call.line, owner=owner
                )
            self._connect(preds, node)
            preds = [node]
        return preds

    # -- statements ----------------------------------------------------------------

    def _build_stmt(self, stmt: ast.Stmt, preds: list[CFGNode]) -> list[CFGNode]:
        if not preds:
            return []  # unreachable code after return/break
        if isinstance(stmt, ast.Block):
            for inner in stmt.body:
                preds = self._build_stmt(inner, preds)
            return preds
        if isinstance(stmt, ast.ExprStmt):
            preds = self._expr_nodes(stmt.expr, preds, owner=stmt)
            node = self._node(self._current_fn, "stmt", stmt=stmt, line=stmt.line)
            self._connect(preds, node)
            return [node]
        if isinstance(stmt, ast.Decl):
            preds = self._expr_nodes(stmt.init, preds, owner=stmt)
            node = self._node(self._current_fn, "stmt", stmt=stmt, line=stmt.line)
            self._connect(preds, node)
            return [node]
        if isinstance(stmt, ast.If):
            preds = self._expr_nodes(stmt.cond, preds)
            branch = self._node(self._current_fn, "stmt", stmt=stmt, line=stmt.line)
            self._connect(preds, branch)
            then_out = self._build_stmt(stmt.then, [branch])
            if stmt.orelse is not None:
                else_out = self._build_stmt(stmt.orelse, [branch])
            else:
                else_out = [branch]
            return then_out + else_out
        if isinstance(stmt, ast.While):
            header = self._node(self._current_fn, "stmt", stmt=stmt, line=stmt.line)
            self._connect(preds, header)
            cond_out = self._expr_nodes(stmt.cond, [header])
            breaks: list[CFGNode] = []
            self._continue_targets.append(header)
            self._break_frames.append(breaks)
            body_out = self._build_stmt(stmt.body, list(cond_out))
            self._break_frames.pop()
            self._continue_targets.pop()
            self._connect(body_out, header)
            return list(cond_out) + breaks
        if isinstance(stmt, ast.Switch):
            preds = self._expr_nodes(stmt.cond, preds)
            head = self._node(self._current_fn, "stmt", stmt=stmt, line=stmt.line)
            self._connect(preds, head)
            breaks: list[CFGNode] = []
            self._break_frames.append(breaks)
            frontier: list[CFGNode] = []  # fallthrough from previous case
            has_default = any(case.value is None for case in stmt.cases)
            for case in stmt.cases:
                entry = [head] + frontier  # dispatch edge + fallthrough
                for inner in case.body:
                    entry = self._build_stmt(inner, entry)
                frontier = entry
            self._break_frames.pop()
            out = list(breaks) + frontier
            if not has_default:
                out.append(head)  # no default: the switch may fall past
            return out
        if isinstance(stmt, ast.Return):
            preds = self._expr_nodes(stmt.value, preds, owner=stmt)
            node = self._node(self._current_fn, "stmt", stmt=stmt, line=stmt.line)
            self._connect(preds, node)
            self.cfg.add_edge(node, self._exit)
            return []
        if isinstance(stmt, ast.Break):
            node = self._node(self._current_fn, "stmt", stmt=stmt, line=stmt.line)
            self._connect(preds, node)
            if not self._break_frames:
                raise ValueError(f"line {stmt.line}: break outside loop/switch")
            self._break_frames[-1].append(node)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._node(self._current_fn, "stmt", stmt=stmt, line=stmt.line)
            self._connect(preds, node)
            if not self._continue_targets:
                raise ValueError(f"line {stmt.line}: continue outside loop")
            self.cfg.add_edge(node, self._continue_targets[-1])
            return []
        raise TypeError(f"unknown statement {stmt!r}")


def build_program_cfg(program: ast.Program) -> ProgramCFG:
    """Build the interprocedural CFG of a parsed program."""
    return _Builder(program).build()


def build_cfg(source: str) -> ProgramCFG:
    """Parse mini-C source and build its CFG in one step."""
    from repro.cfg.parser import parse_program

    return build_program_cfg(parse_program(source))
