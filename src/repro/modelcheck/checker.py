"""The annotated-constraint pushdown model checker (Section 6).

The encoding follows Section 6.1 exactly:

1. every CFG node ``s`` gets a set variable ``S``;
2. an edge from an irrelevant statement adds ``S ⊆ S'``;
3. an edge from a property-relevant statement adds ``S ⊆^s S'``, the
   annotation being the statement's alphabet symbol (a substitution
   environment when the symbol is parametric, Section 6.4);
4. a call to ``f`` at site ``i`` adds ``o_i(S) ⊆ F_entry`` and
   ``o_i^{-1}(F_exit) ⊆ S'`` — calls and returns are matched by the
   *context-free* constructor/projection mechanism while the property
   runs in the *regular* annotations;
5. ``pc ⊆ S_main`` seeds the program counter.

A violation is the entailment of ``pc^{f}`` at some node variable with
``f`` driving the property machine into its error set; the query uses
PN reachability (descending into unreturned calls), so errors inside
callees with pending frames are found.  Witness traces come from the
solver's provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.cfg.graph import CFGNode, ProgramCFG
from repro.core.annotations import Annotation, CompiledMonoidAlgebra, MonoidAlgebra
from repro.core.budget import Budget
from repro.core.flatcore import FlatSolver
from repro.core.parametric import EntryKey, ParametricAlgebra
from repro.core.queries import Reachability
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable
from repro.modelcheck.properties import Property


@dataclass(frozen=True)
class Violation:
    """A property violation at a program point.

    ``instantiation`` is None for non-parametric properties, else the
    parameter bindings (e.g. which file descriptor erred).  ``trace``
    lists the CFG nodes of one witness path, in execution order.
    """

    node: CFGNode
    annotation: Annotation
    instantiation: tuple[tuple[str, str], ...] | None
    trace: tuple[CFGNode, ...]

    def describe(self) -> str:
        where = self.node.describe()
        if self.instantiation:
            bindings = ", ".join(f"{p}={label}" for p, label in self.instantiation)
            return f"violation at {where} [{bindings}]"
        return f"violation at {where}"


@dataclass
class CheckResult:
    violations: list[Violation] = field(default_factory=list)
    constraints: int = 0
    facts: int = 0

    @property
    def has_violation(self) -> bool:
        return bool(self.violations)

    def violation_lines(self) -> set[int]:
        return {v.node.line for v in self.violations}


def _epsilon_scc_representatives(cfg: ProgramCFG, event_of) -> dict[int, int]:
    """Map each CFG node to its ε-SCC representative.

    Two nodes are merged when they lie on a cycle of edges that carry
    the identity annotation (no property event, no call constructor) —
    the loops a structured CFG is full of.  Nodes on such a cycle are
    mutually ε-included, hence equal in every solution, so the merge is
    exact.  Kosaraju's algorithm, iteratively, on the ε-edge subgraph.
    """
    epsilon_succ: dict[int, list[int]] = {}
    epsilon_pred: dict[int, list[int]] = {}
    identity_nodes = set()
    for node in cfg.all_nodes():
        if node.kind == "call":
            continue
        if event_of(node) is not None:
            continue
        identity_nodes.add(node.id)
        for succ in cfg.successors(node):
            epsilon_succ.setdefault(node.id, []).append(succ.id)
            epsilon_pred.setdefault(succ.id, []).append(node.id)

    # First pass: finish order over the ε-subgraph.
    order: list[int] = []
    visited: set[int] = set()
    for start in list(identity_nodes):
        if start in visited:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        visited.add(start)
        while stack:
            node, index = stack.pop()
            successors = epsilon_succ.get(node, [])
            if index < len(successors):
                stack.append((node, index + 1))
                nxt = successors[index]
                if nxt not in visited and nxt in identity_nodes:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(node)
    # Second pass: components in reverse finish order over reversed edges.
    representative: dict[int, int] = {}
    assigned: set[int] = set()
    for start in reversed(order):
        if start in assigned:
            continue
        component = [start]
        assigned.add(start)
        cursor = 0
        while cursor < len(component):
            node = component[cursor]
            cursor += 1
            for prev in epsilon_pred.get(node, []):
                if prev not in assigned and prev in identity_nodes:
                    assigned.add(prev)
                    component.append(prev)
        root = min(component)
        for node in component:
            representative[node] = root
    return representative


class AnnotatedChecker:
    """Model-check a program CFG against a temporal safety property.

    ``algebra`` reuses a prebuilt annotation algebra (the analysis
    service caches one compiled monoid per property machine and shares
    it across checks); it must be an algebra over ``prop.machine``.
    Without one the checker builds it: a :class:`ParametricAlgebra` for
    a parametric property, else the compiled
    :class:`CompiledMonoidAlgebra` (§8) when ``flat=True`` or a
    :class:`MonoidAlgebra`.

    ``solver`` warm-starts the checker from an already-solved system
    (e.g. one reloaded via :func:`repro.core.persist.load_solver`):
    encoding is skipped entirely and queries run against the loaded
    solved form.  The solver must have been produced by encoding the
    *same* CFG/property pair — variable names (``S<node_id>``) are
    deterministic, so the node↔variable correspondence is recovered
    without re-encoding.
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        prop: Property,
        collapse_cycles: bool = False,
        algebra: Any | None = None,
        solver: Solver | None = None,
        record_reasons: bool = True,
        budget: Budget | None = None,
        cycle_elim: bool = True,
        flat: bool = False,
        track_redundant: bool = False,
    ):
        self.cfg = cfg
        self.property = prop
        if solver is not None:
            self.algebra = solver.algebra
            self.solver = solver
            if budget is not None:
                self.solver.budget = budget
        else:
            if algebra is not None:
                self.algebra = algebra
            elif prop.parametric_symbols:
                self.algebra = ParametricAlgebra(
                    prop.machine, prop.parametric_symbols
                )
            elif flat:
                # The §8 specializer: annotations become table indices.
                self.algebra = CompiledMonoidAlgebra(prop.machine)
            else:
                self.algebra = MonoidAlgebra(prop.machine)
            if flat:
                # The flat-array core: int-indexed columns, no
                # provenance (see :mod:`repro.core.flatcore`).
                self.solver = FlatSolver(
                    self.algebra,
                    budget=budget,
                    cycle_elim=cycle_elim,
                    track_redundant=track_redundant,
                )
            else:
                self.solver = Solver(
                    self.algebra,
                    record_reasons=record_reasons,
                    budget=budget,
                    cycle_elim=cycle_elim,
                    track_redundant=track_redundant,
                )
        self.pc = Constructor("pc", 0)()
        self._vars: dict[int, Variable] = {}
        self._constraints = 0
        #: ε-cycle elimination (the online cycle-elimination optimization
        #: BANSHEE applies, §8 / Fähndrich et al.): nodes on a cycle of
        #: identity-annotated edges share one set variable.
        self._rep: dict[int, int] = {}
        if collapse_cycles:
            self._rep = _epsilon_scc_representatives(cfg, prop.event_of)
        if solver is None:
            self._encode()
        else:
            # Warm start: recover the node ↔ variable correspondence the
            # original encode produced (names are deterministic), so the
            # query loops in check()/has_violation() see every node.
            for node in cfg.all_nodes():
                self.node_var(node)
        self._reachability: Reachability | None = None

    # -- encoding ---------------------------------------------------------------

    def node_var(self, node: CFGNode) -> Variable:
        node_id = self._rep.get(node.id, node.id)
        var = self._vars.get(node_id)
        if var is None:
            var = Variable(f"S{node_id}")
            self._vars[node_id] = var
        return var

    def _annotation_of(self, node: CFGNode) -> Annotation:
        event = self.property.event_of(node)
        if event is None:
            return self.algebra.identity
        symbol, labels = event
        if isinstance(self.algebra, ParametricAlgebra):
            return self.algebra.symbol(symbol, labels)
        if labels is not None:
            raise ValueError(
                f"property {self.property.name!r} is not parametric but the "
                f"event mapper returned labels {labels!r}"
            )
        return self.algebra.symbol(symbol)

    def _encode(self) -> None:
        cfg = self.cfg
        batch: list[tuple] = [(self.pc, self.node_var(cfg.main.entry))]
        for node in cfg.all_nodes():
            src = self.node_var(node)
            if node.kind == "call":
                callee = cfg.functions[node.call.callee]
                wrapper = Constructor(f"o{node.site}", 1)
                batch.append(
                    (wrapper(src), self.node_var(callee.entry), None, node)
                )
                exit_var = self.node_var(callee.exit)
                for succ in cfg.successors(node):
                    batch.append(
                        (wrapper.proj(1, exit_var), self.node_var(succ), None, node)
                    )
                continue
            annotation = self._annotation_of(node)
            for succ in cfg.successors(node):
                batch.append((src, self.node_var(succ), annotation, node))
        self._constraints = len(batch)
        # One drain for the whole program instead of one per constraint.
        self.solver.add_many(batch)

    # -- queries ------------------------------------------------------------------

    def reachability(self) -> Reachability:
        if self._reachability is None:
            self._reachability = Reachability(self.solver, through_constructors=True)
        return self._reachability

    def check(self, traces: bool = False) -> CheckResult:
        """Find all program points whose annotations reach the error set.

        One violation is reported per (program point, instantiation)
        pair.  Witness traces are extracted only with ``traces=True``
        (they dominate the cost on large programs); use
        :meth:`witness` to reconstruct a single violation's trace
        after the fact.
        """
        reach = self.reachability()
        result = CheckResult(constraints=self._constraints, facts=self.solver.fact_count())
        parametric = isinstance(self.algebra, ParametricAlgebra)
        for node in self.cfg.all_nodes():
            var = self._vars.get(self._rep.get(node.id, node.id))
            if var is None:
                continue
            seen: set[tuple[tuple[str, str], ...] | None] = set()
            for annotation in reach.annotations_of(var, self.pc):
                if parametric:
                    keys = self.algebra.accepting_instantiations(annotation)
                    hits: list[tuple[tuple[str, str], ...] | None] = [
                        tuple(sorted(key)) for key in keys
                    ]
                    if self.algebra.base.is_accepting(annotation.residual):
                        hits.append(None)
                else:
                    hits = [None] if self.algebra.is_accepting(annotation) else []
                for instantiation in hits:
                    if instantiation in seen:
                        continue
                    seen.add(instantiation)
                    trace: tuple[CFGNode, ...] = ()
                    if traces:
                        trace = tuple(
                            step
                            for step in reach.witness(var, self.pc, annotation)
                            if isinstance(step, CFGNode)
                        )
                    result.violations.append(
                        Violation(node, annotation, instantiation, trace)
                    )
        return result

    def witness(self, violation: Violation) -> tuple[CFGNode, ...]:
        """Witness trace for one violation (lazy counterpart of
        ``check(traces=True)``)."""
        reach = self.reachability()
        var = self.node_var(violation.node)
        return tuple(
            step
            for step in reach.witness(var, self.pc, violation.annotation)
            if isinstance(step, CFGNode)
        )

    def has_violation(self) -> bool:
        """Fast boolean check (stops scanning at the first violation)."""
        reach = self.reachability()
        parametric = isinstance(self.algebra, ParametricAlgebra)
        for node in self.cfg.all_nodes():
            var = self._vars.get(self._rep.get(node.id, node.id))
            if var is None:
                continue
            for annotation in reach.annotations_of(var, self.pc):
                if parametric:
                    if self.algebra.is_accepting(annotation):
                        return True
                elif self.algebra.is_accepting(annotation):
                    return True
        return False

    def states_at(self, node: CFGNode) -> set[int] | dict[EntryKey, set[int]]:
        """Property-machine states reachable at a program point.

        For a plain property: the set of states ``f(s0)`` over all path
        classes ``f``.  For a parametric property: a map from
        instantiation keys to their state sets (the general query of
        Section 3.2 — e.g. "is ``fd2`` in the Opened state here?").
        """
        reach = self.reachability()
        var = self.node_var(node)
        annotations = reach.annotations_of(var, self.pc)
        if not isinstance(self.algebra, ParametricAlgebra):
            # state_after handles both representations: representative
            # functions (object mode) and table indices (compiled mode).
            return {self.algebra.state_after(ann) for ann in annotations}
        states: dict[EntryKey, set[int]] = {}
        start = self.property.machine.start
        for env in annotations:
            for key, fn in env.entries:
                states.setdefault(key, set()).add(fn(start))
            states.setdefault(frozenset(), set()).add(env.residual(start))
        return states
