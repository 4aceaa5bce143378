"""A demand-driven forward solver with summarization (Section 5 realized).

The paper's Section 5 argues forward solving needs only the right
congruence — machine *states* instead of representative functions — so
at most ``|S|`` derived annotations arise per variable, versus up to
``|S|^|S|`` bidirectionally.  It also notes (Section 9) that no forward
or backward solver for set constraints was publicly available; BANSHEE
only shipped the bidirectional one.  This module supplies the missing
artifact for the fragment every application in the paper uses:

* annotated variable-variable constraints ``X ⊆^w Y``,
* constructed lower bounds ``c(X₁..Xₖ) ⊆ Y`` (the call/"wrap" edges),
* projections ``c^{-i}(Y) ⊆ Z`` (the return/"unwrap" edges),
* constant sources ``b ⊆^w X``.

Solving is *demand driven*: pick one source constant and tabulate the
facts ``(variable, machine state)`` it induces, RHS-style (the IFDS
algorithm shape): a fact crossing a wrap edge opens a new *level*
anchored at the callee-side fact; facts reaching an unwrap edge
register *summaries* on their level, which resume every matching
caller.  Constructor/projection matching is exact (same constructor,
same argument position); the regular property rides along in the state
component.  Facts at pending levels are PN reachability; facts whose
level is the root are matched-only.

Complexity: path edges are (anchor, fact) pairs with at most
``n·|S|`` facts per level and ``n·|S|`` anchors — the forward bound of
Section 5, with the usual summarization factors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Hashable, Iterable

from repro.core.budget import Budget
from repro.core.cycles import DEFAULT_SEARCH_BOUND, UnionFind, find_identity_cycle
from repro.core.errors import ConstraintError
from repro.core.terms import (
    Constructed,
    Projection,
    SetExpression,
    Variable,
)
from repro.dfa.automaton import DFA, Symbol

#: A wrap/unwrap site: (constructor name, arity, argument position).
Site = tuple[str, int, int]

Fact = tuple[Variable, int]  # (variable, machine state)
Anchor = tuple[Variable, int]  # the entry fact anchoring a level


@dataclass
class _Graph:
    plain: dict[Variable, list[tuple[Variable, tuple[Symbol, ...]]]] = field(
        default_factory=dict
    )
    wraps: dict[Variable, list[tuple[Site, Variable]]] = field(default_factory=dict)
    unwraps: dict[Variable, list[tuple[Site, Variable]]] = field(
        default_factory=dict
    )
    sources: dict[str, list[tuple[Variable, tuple[Symbol, ...]]]] = field(
        default_factory=dict
    )


def _empty_word(word: tuple) -> bool:
    return not word


class DemandForwardSolver:
    """Forward, demand-driven solving over states of the property DFA.

    Cycles of empty-word plain edges collapse online (see
    :mod:`repro.core.cycles`): their members receive identical state
    sets, so tabulation runs over the merged node once.  Queries resolve
    merged variables through :meth:`find`.
    """

    def __init__(
        self,
        machine: DFA,
        cycle_elim: bool = True,
        cycle_search_bound: int = DEFAULT_SEARCH_BOUND,
    ):
        self.machine = machine
        self.cycle_elim = cycle_elim
        self.cycle_search_bound = cycle_search_bound
        self._live = machine.coreachable_states()
        self._graph = _Graph()
        self._uf = UnionFind()
        # Reverse index of empty-word plain edges, for cycle detection
        # (filled only with cycle_elim on: nothing else reads it).
        self._eps_pred: dict[Variable, list[tuple[Variable, tuple]]] = {}
        #: Composition accounting across :meth:`solve` calls: the same
        #: fact tabulated at two anchors used to re-run every successor
        #: word through the machine; the ``(state, word)`` memo
        #: short-circuits those — ``compose_evals`` counts only the
        #: pairs actually evaluated.
        self.compose_calls = 0
        self.compose_evals = 0
        self._run_memo: dict[tuple[int, tuple[Symbol, ...]], int] = {}

    def find(self, var: Variable) -> Variable:
        uf = self._uf
        if not uf.parent:
            return var
        return uf.find(var)

    def _collapse(self, cycle: list[Variable]) -> None:
        winner = min(cycle, key=lambda v: v.name)
        find = self.find
        graph = self._graph
        for loser in cycle:
            if loser == winner:
                continue
            self._uf.union(winner, loser)
            plain = graph.plain.pop(loser, None)
            if plain:
                bucket = graph.plain.setdefault(winner, [])
                for dst, word in plain:
                    dst = find(dst)
                    if dst == winner and not word:
                        continue
                    bucket.append((dst, word))
            for table in (graph.wraps, graph.unwraps):
                moved = table.pop(loser, None)
                if moved:
                    table.setdefault(winner, []).extend(moved)
            eps = self._eps_pred.pop(loser, None)
            if eps:
                bucket = self._eps_pred.setdefault(winner, [])
                for pred, word in eps:
                    pred = find(pred)
                    if pred != winner:
                        bucket.append((pred, word))

    # -- constraint loading -----------------------------------------------------

    def add(
        self,
        lhs: SetExpression,
        rhs: SetExpression,
        word: Iterable[Symbol] = (),
    ) -> None:
        """Load one constraint of the supported forward fragment.

        A word symbol outside the machine's alphabet raises ``ValueError``.
        """
        word = self._checked(word)
        if isinstance(lhs, Variable) and isinstance(rhs, Variable):
            src, dst = self.find(lhs), self.find(rhs)
            if src == dst and not word:
                return  # an empty-word self-loop adds nothing
            self._graph.plain.setdefault(src, []).append((dst, word))
            if not word and self.cycle_elim:
                self._eps_pred.setdefault(dst, []).append((src, ()))
                cycle = find_identity_cycle(
                    self._eps_pred,
                    self.find,
                    _empty_word,
                    src,
                    dst,
                    self.cycle_search_bound,
                )
                if cycle is not None:
                    self._collapse(cycle)
            return
        if isinstance(lhs, Constructed) and isinstance(rhs, Variable):
            if word:
                raise ConstraintError(
                    "annotated constructed bounds are not in the forward fragment"
                )
            if lhs.is_constant:
                self._graph.sources.setdefault(lhs.constructor.name, []).append(
                    (rhs, ())
                )
                return
            for position, arg in enumerate(lhs.args, start=1):
                if not isinstance(arg, Variable):
                    raise ConstraintError("constructor arguments must be variables")
                site: Site = (lhs.constructor.name, lhs.constructor.arity, position)
                self._graph.wraps.setdefault(self.find(arg), []).append((site, rhs))
            return
        if isinstance(lhs, Projection) and isinstance(rhs, Variable):
            if word:
                raise ConstraintError(
                    "annotated projections are not in the forward fragment"
                )
            site = (lhs.constructor.name, lhs.constructor.arity, lhs.index)
            self._graph.unwraps.setdefault(self.find(lhs.operand), []).append(
                (site, rhs)
            )
            return
        raise ConstraintError(f"unsupported constraint {lhs!r} ⊆ {rhs!r}")

    def add_source(
        self, name: str, var: Variable, word: Iterable[Symbol] = ()
    ) -> None:
        """Declare a constant source ``name ⊆^word var``."""
        self._graph.sources.setdefault(name, []).append((var, self._checked(word)))

    def _checked(self, word: Iterable[Symbol]) -> tuple[Symbol, ...]:
        word = tuple(word)
        for sym in word:
            if sym not in self.machine.alphabet:
                raise ValueError(f"symbol {sym!r} not in the machine's alphabet")
        return word

    # -- tabulation ----------------------------------------------------------------

    def solve(
        self, source: str, budget: Budget | None = None
    ) -> "DemandSolution":
        """Tabulate all facts induced by one source constant.

        ``budget`` governs the tabulation under the contract of
        :mod:`repro.core.budget`: it is charged before the first path
        edge and then every ``check_interval`` path edges, and an
        exhausted limit or a cancelled token raises
        :class:`~repro.core.errors.SolverBudgetExceeded` or
        :class:`~repro.core.errors.SolverCancelled` with the progress so
        far (``facts`` counts path edges, ``pending`` the worklist).
        Unlike the bidirectional drains, an interrupted forward solve
        cannot resume: the tabulation lives only in this call, so its
        partial facts are discarded and a later ``solve`` starts over.
        """
        machine = self.machine
        graph = self._graph
        live = self._live
        plain = graph.plain
        wraps = graph.wraps
        unwraps = graph.unwraps
        find = self.find

        path_edges: set[tuple[Anchor, Fact]] = set()
        work: deque[tuple[Anchor, Fact]] = deque()
        callers: dict[Anchor, set[tuple[Site, Anchor]]] = {}
        summaries: dict[Anchor, set[tuple[Site, Variable, int]]] = {}
        roots: set[Anchor] = set()
        parents: dict[tuple[Anchor, Fact], tuple[Anchor, Fact] | None] = {}

        def propagate(
            anchor: Anchor,
            fact: Fact,
            parent: tuple[Anchor, Fact] | None = None,
        ) -> None:
            edge = (anchor, fact)
            if edge not in path_edges:
                path_edges.add(edge)
                parents[edge] = parent
                work.append(edge)

        for var, word in graph.sources.get(source, ()):
            state = machine.run(word)
            if state in live:
                root: Anchor = (find(var), state)
                roots.add(root)
                propagate(root, root)

        run_memo = self._run_memo
        check_every = countdown = 0
        if budget is not None and work:
            check_every = countdown = budget.check_interval
            progress = SimpleNamespace(
                fact_count=path_edges.__len__, pending_count=work.__len__
            )
            budget.charge(0, progress)
        while work:
            if budget is not None:
                countdown -= 1
                if countdown <= 0:
                    countdown = check_every
                    budget.charge(check_every, progress)
            edge = work.popleft()
            anchor, (var, state) = edge
            for succ, word in plain.get(var, ()):
                self.compose_calls += 1
                key = (state, word)
                next_state = run_memo.get(key)
                if next_state is None:
                    self.compose_evals += 1
                    next_state = run_memo[key] = machine.run(word, state)
                if next_state in live:
                    # Edges recorded before a later merge may still name
                    # a merged-away variable; resolve at use.
                    propagate(anchor, (find(succ), next_state), edge)
            for site, entry in wraps.get(var, ()):
                callee_anchor: Anchor = (find(entry), state)
                callers.setdefault(callee_anchor, set()).add((site, anchor))
                propagate(callee_anchor, callee_anchor, edge)
                for summary_site, target, exit_state in summaries.get(
                    callee_anchor, ()
                ):
                    if summary_site == site:
                        propagate(anchor, (find(target), exit_state), edge)
            for site, target in unwraps.get(var, ()):
                target = find(target)
                summary = (site, target, state)
                bucket = summaries.setdefault(anchor, set())
                if summary not in bucket:
                    bucket.add(summary)
                    for caller_site, caller_anchor in callers.get(anchor, ()):
                        if caller_site == site:
                            propagate(caller_anchor, (target, state), edge)
        if budget is not None:
            budget.settle(check_every - countdown)

        return DemandSolution(self, source, path_edges, roots, parents)


class DemandSolution:
    """Query view over one source's tabulated facts."""

    def __init__(
        self,
        solver: DemandForwardSolver,
        source: str,
        path_edges: set[tuple[Anchor, Fact]],
        roots: set[Anchor],
        parents: dict[tuple[Anchor, Fact], tuple[Anchor, Fact] | None]
        | None = None,
    ):
        self.solver = solver
        self.source = source
        self._roots = roots
        self._parents = parents or {}
        self._pn: dict[Variable, set[int]] = {}
        self._matched: dict[Variable, set[int]] = {}
        self._edges_at: dict[Fact, tuple[Anchor, Fact]] = {}
        for anchor, (var, state) in path_edges:
            self._pn.setdefault(var, set()).add(state)
            self._edges_at.setdefault((var, state), (anchor, (var, state)))
            if anchor in roots:
                self._matched.setdefault(var, set()).add(state)
        self.fact_count = len(path_edges)

    def states_of(self, var: Variable, matched_only: bool = False) -> set[int]:
        """Machine states the source reaches ``var`` with.

        ``matched_only=False`` (default) is PN reachability — states
        inside pending wraps are included; ``matched_only=True``
        restricts to root-level (fully matched) facts.
        """
        table = self._matched if matched_only else self._pn
        return set(table.get(self.solver.find(var), set()))

    def reaches(
        self,
        var: Variable,
        target_states: Iterable[int] | None = None,
        matched_only: bool = False,
    ) -> bool:
        states = self.states_of(var, matched_only)
        if target_states is None:
            return bool(states & self.solver.machine.accepting)
        return bool(states & set(target_states))

    def variables(self) -> set[Variable]:
        return set(self._pn)

    def max_states_per_variable(self) -> int:
        """The Section 5 bound in action: at most ``|S|``."""
        return max((len(s) for s in self._pn.values()), default=0)

    def trace(self, var: Variable, state: int) -> list[Fact]:
        """One derivation path for the fact ``(var, state)``.

        Returns the sequence of ``(variable, state)`` facts from the
        source to the queried fact (the tabulation's parent chain).
        Empty if the fact was never derived.
        """
        edge = self._edges_at.get((self.solver.find(var), state))
        if edge is None:
            return []
        steps: list[Fact] = []
        cursor: tuple[Anchor, Fact] | None = edge
        seen: set[tuple[Anchor, Fact]] = set()
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            steps.append(cursor[1])
            cursor = self._parents.get(cursor)
        steps.reverse()
        return steps


class DemandBackwardSolver:
    """The backward strategy of Section 5, by reduction to forward.

    Backward solving uses the *left* congruence — classes of words
    interchangeable as suffixes — whose representatives are the states
    of the reversed machine's minimal DFA.  Operationally, backward
    demand solving over a constraint graph is exactly forward demand
    solving over the **reversed** graph with the **reversed** machine:

    * an edge ``X ⊆^w Y`` reverses to ``Y → X`` reading ``reverse(w)``;
    * a wrap edge (constructor argument into a bound) reverses into an
      unwrap edge and vice versa — leaving a constructor backward is
      entering it forward;
    * the demanded *target* variable becomes the (single) source.

    ``solve_to(X)`` tabulates, for every variable ``V``, the reversed-
    machine states of path words ``V → X``; ``V`` can reach ``X`` along
    a word of ``L(M)`` iff one of those states accepts in the reversed
    machine.  Derived annotations per variable are bounded by the
    reversed machine's state count — the Section 5.1 backward bound.
    """

    _TARGET = "__target__"

    def __init__(
        self,
        machine: DFA,
        cycle_elim: bool = True,
        cycle_search_bound: int = DEFAULT_SEARCH_BOUND,
    ):
        self.machine = machine
        self.reversed_machine = machine.reverse()
        self._forward = DemandForwardSolver(
            self.reversed_machine,
            cycle_elim=cycle_elim,
            cycle_search_bound=cycle_search_bound,
        )

    def add(
        self,
        lhs: SetExpression,
        rhs: SetExpression,
        word: Iterable[Symbol] = (),
    ) -> None:
        """Load one constraint; it is stored reversed."""
        word = tuple(word)
        if isinstance(lhs, Variable) and isinstance(rhs, Variable):
            self._forward.add(rhs, lhs, tuple(reversed(word)))
            return
        if isinstance(lhs, Constructed) and isinstance(rhs, Variable):
            if word:
                raise ConstraintError(
                    "annotated constructed bounds are not in the backward fragment"
                )
            if lhs.is_constant:
                # Constant sources are forward-only; record for queries.
                self._forward.add_source(lhs.constructor.name, rhs)
                return
            ctor = lhs.constructor
            for position, arg in enumerate(lhs.args, start=1):
                if not isinstance(arg, Variable):
                    raise ConstraintError("constructor arguments must be variables")
                self._forward.add(ctor.proj(position, rhs), arg)
            return
        if isinstance(lhs, Projection) and isinstance(rhs, Variable):
            if word:
                raise ConstraintError(
                    "annotated projections are not in the backward fragment"
                )
            args = tuple(
                rhs if index == lhs.index else Variable(f"_any{index}")
                for index in range(1, lhs.constructor.arity + 1)
            )
            self._forward.add(Constructed(lhs.constructor, args), lhs.operand)
            return
        raise ConstraintError(f"unsupported constraint {lhs!r} ⊆ {rhs!r}")

    def solve_to(self, target: Variable) -> DemandSolution:
        """Tabulate which variables reach ``target``, with suffix classes."""
        name = f"{self._TARGET}{target.name}"
        self._forward.add_source(name, target)
        return self._forward.solve(name)

    def can_reach(
        self, solution: DemandSolution, var: Variable, matched_only: bool = False
    ) -> bool:
        """Can ``var`` reach the demanded target along a word of L(M)?"""
        states = solution.states_of(var, matched_only=matched_only)
        return bool(states & self.reversed_machine.accepting)
