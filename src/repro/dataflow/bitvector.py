"""Interprocedural bit-vector dataflow via regular annotations.

This is Section 3.3 realized on real control-flow graphs: each of the
``n`` facts gets its own 1-bit machine (Fig 1), the annotation domain is
their product (a tuple of 1-bit representative functions — the lazy
alternative to the ``2^n``-state product machine), and the CFG is
encoded exactly as in the model checker, with ``o_i`` constructors
matching calls and returns.  Because the 1-bit monoid is
``{f_ε, f_g, f_k}``, at most ``3^n`` distinct annotations exist, and in
practice far fewer — this automatic collapsing of order-independent
gen/kill sequences is the paper's Section 4 observation that
``X ⊆^{g1 g2} Y`` subsumes ``X ⊆^{g2 g1} Y``.

The analysis answers *may* queries over realizable (call-matched)
paths: ``fact i`` may hold at node ``s`` iff some valid path from
program entry to ``s`` ends with the bit set.
"""

from __future__ import annotations

from repro.cfg.graph import CFGNode, ProgramCFG
from repro.core.budget import Budget
from repro.core.annotations import (
    CompiledGenKillAlgebra,
    MonoidAlgebra,
    ProductAlgebra,
)
from repro.core.flatcore import FlatSolver
from repro.core.queries import Reachability
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable
from repro.dataflow.problems import BitVectorProblem
from repro.dfa.gallery import one_bit_machine


class AnnotatedBitVectorAnalysis:
    """Solve a bit-vector problem with the annotated-constraint solver.

    ``algebra`` reuses a prebuilt annotation domain (the analysis
    service shares one per bit width so repeated requests skip
    recompiling the monoids): either a :class:`ProductAlgebra` of
    one-bit monoid algebras with exactly ``problem.n_bits`` components,
    or a :class:`CompiledGenKillAlgebra` of the same width.  With
    ``compiled=True`` (and no shared algebra) the compiled packed-int
    domain is built here.

    Dataflow queries never extract witness traces, so the solver runs
    with provenance recording off.
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        problem: BitVectorProblem,
        algebra: ProductAlgebra | CompiledGenKillAlgebra | None = None,
        compiled: bool = False,
        flat: bool = False,
        budget: Budget | None = None,
        track_redundant: bool = False,
    ):
        self.cfg = cfg
        self.problem = problem
        if algebra is None:
            if compiled or flat:
                algebra = CompiledGenKillAlgebra(problem.n_bits)
            else:
                bit_algebra = MonoidAlgebra(one_bit_machine())
                algebra = ProductAlgebra([bit_algebra] * problem.n_bits)
        self._compiled = isinstance(algebra, CompiledGenKillAlgebra)
        if self._compiled:
            if algebra.n_bits != problem.n_bits:
                raise ValueError(
                    f"shared algebra packs {algebra.n_bits} bits "
                    f"but the problem tracks {problem.n_bits} facts"
                )
        else:
            if len(algebra.components) != problem.n_bits:
                raise ValueError(
                    f"shared algebra has {len(algebra.components)} components "
                    f"but the problem tracks {problem.n_bits} facts"
                )
            bit_algebra = algebra.components[0]
            self._gen = bit_algebra.symbol("g")
            self._kill = bit_algebra.symbol("k")
            self._eps = bit_algebra.identity
        self.algebra = algebra
        if flat:
            if not self._compiled:
                raise ValueError(
                    "flat=True needs the compiled gen/kill algebra "
                    "(pass compiled=True or a CompiledGenKillAlgebra)"
                )
            self.solver: Solver | FlatSolver = FlatSolver(
                self.algebra, budget=budget, track_redundant=track_redundant
            )
        else:
            self.solver = Solver(
                self.algebra,
                record_reasons=False,
                budget=budget,
                track_redundant=track_redundant,
            )
        self.pc = Constructor("pc", 0)()
        self._vars: dict[int, Variable] = {}
        self._encode()
        self._reachability: Reachability | None = None

    def node_var(self, node: CFGNode) -> Variable:
        var = self._vars.get(node.id)
        if var is None:
            var = Variable(f"S{node.id}")
            self._vars[node.id] = var
        return var

    def _annotation_of(self, node: CFGNode):
        gen, kill = self.problem.effect_of(node)
        if not gen and not kill:
            return self.algebra.identity
        if self._compiled:
            return self.algebra.of_effect(gen, kill)
        return tuple(
            self._gen if i in gen else self._kill if i in kill else self._eps
            for i in range(self.problem.n_bits)
        )

    def _encode(self) -> None:
        cfg = self.cfg
        batch: list[tuple] = [(self.pc, self.node_var(cfg.main.entry))]
        for node in cfg.all_nodes():
            src = self.node_var(node)
            if node.kind == "call":
                callee = cfg.functions[node.call.callee]
                wrapper = Constructor(f"o{node.site}", 1)
                batch.append((wrapper(src), self.node_var(callee.entry)))
                exit_var = self.node_var(callee.exit)
                for succ in cfg.successors(node):
                    batch.append((wrapper.proj(1, exit_var), self.node_var(succ)))
                continue
            annotation = self._annotation_of(node)
            for succ in cfg.successors(node):
                batch.append((src, self.node_var(succ), annotation))
        self.solver.add_many(batch)

    # -- queries -------------------------------------------------------------

    def reachability(self) -> Reachability:
        if self._reachability is None:
            self._reachability = Reachability(self.solver, through_constructors=True)
        return self._reachability

    def may_hold(self, node: CFGNode) -> frozenset[int]:
        """Facts that may hold at ``node`` over some realizable path."""
        reach = self.reachability()
        var = self.node_var(node)
        facts: set[int] = set()
        for annotation in reach.annotations_of(var, self.pc):
            bits = self.algebra.accepting_bits(annotation)
            facts.update(i for i, holds in enumerate(bits) if holds)
        return frozenset(facts)

    def must_not_hold(self, node: CFGNode) -> frozenset[int]:
        """Facts that hold on *no* realizable path to ``node``."""
        return frozenset(range(self.problem.n_bits)) - self.may_hold(node)

    def solution(self) -> dict[int, frozenset[int]]:
        """May-hold fact sets for every CFG node, keyed by node id."""
        return {node.id: self.may_hold(node) for node in self.cfg.all_nodes()}
