"""Model checking on the demand-driven forward solver (§5 in practice).

Same Section 6.1 encoding as :class:`~repro.modelcheck.checker.AnnotatedChecker`,
loaded into :class:`~repro.core.demand.DemandForwardSolver` and solved
on demand from the single ``pc`` source.  Derived annotations are
machine states — at most ``|S|`` per program point — which is the
paper's argument for why whole-program analysis is asymptotically
cheaper than the separate-analysis-capable bidirectional strategy.

Parametric properties are not supported here: substitution environments
are inherently bidirectional-style annotations (their domain grows with
the composition, which is exactly what the right congruence cannot
express without the explicit product).
"""

from __future__ import annotations

from repro.cfg.graph import CFGNode, ProgramCFG
from repro.core.budget import Budget
from repro.core.demand import DemandForwardSolver, DemandSolution
from repro.core.terms import Constructor, Variable
from repro.modelcheck.properties import Property


class DemandChecker:
    """Forward, demand-driven model checker for non-parametric properties.

    ``cycle_elim`` switches the solver's online collapse of empty-word
    cycles; ``budget`` governs the solve (see
    :meth:`DemandForwardSolver.solve`), which then raises
    :class:`~repro.core.errors.SolverInterrupted` from the first query.
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        prop: Property,
        cycle_elim: bool = True,
        budget: Budget | None = None,
    ):
        if prop.parametric_symbols:
            raise ValueError(
                "the demand forward checker does not support parametric "
                "properties (see module docstring)"
            )
        self.cfg = cfg
        self.property = prop
        self.budget = budget
        self.solver = DemandForwardSolver(prop.machine, cycle_elim=cycle_elim)
        self._vars: dict[int, Variable] = {}
        self._encode()
        self._solution: DemandSolution | None = None

    def node_var(self, node: CFGNode) -> Variable:
        var = self._vars.get(node.id)
        if var is None:
            var = Variable(f"S{node.id}")
            self._vars[node.id] = var
        return var

    def _encode(self) -> None:
        cfg = self.cfg
        solver = self.solver
        solver.add_source("pc", self.node_var(cfg.main.entry))
        for node in cfg.all_nodes():
            src = self.node_var(node)
            if node.kind == "call":
                callee = cfg.functions[node.call.callee]
                wrapper = Constructor(f"o{node.site}", 1)
                solver.add(wrapper(src), self.node_var(callee.entry))
                exit_var = self.node_var(callee.exit)
                for succ in cfg.successors(node):
                    solver.add(wrapper.proj(1, exit_var), self.node_var(succ))
                continue
            event = self.property.event_of(node)
            word = () if event is None else (event[0],)
            for succ in cfg.successors(node):
                solver.add(src, self.node_var(succ), word)

    def solution(self) -> DemandSolution:
        if self._solution is None:
            self._solution = self.solver.solve("pc", budget=self.budget)
        return self._solution

    def has_violation(self) -> bool:
        solution = self.solution()
        accepting = self.property.machine.accepting
        return any(
            solution.states_of(var) & accepting for var in solution.variables()
        )

    def violation_nodes(self) -> list[CFGNode]:
        solution = self.solution()
        accepting = self.property.machine.accepting
        hits = []
        for node in self.cfg.all_nodes():
            var = self._vars.get(node.id)
            if var is not None and solution.states_of(var) & accepting:
                hits.append(node)
        return hits

    def states_at(self, node: CFGNode) -> set[int]:
        return self.solution().states_of(self.node_var(node))

    def witness(self, node: CFGNode, state: int) -> list[CFGNode]:
        """A statement path driving the property to ``state`` at ``node``.

        Reconstructed from the tabulation's parent chain; entries map
        back from set variables to CFG nodes in execution order.
        """
        by_var = {var.name: node_id for node_id, var in self._vars.items()}
        steps: list[CFGNode] = []
        for var, _state in self.solution().trace(self.node_var(node), state):
            node_id = by_var.get(var.name)
            if node_id is not None:
                steps.append(self.cfg.nodes[node_id])
        return steps
