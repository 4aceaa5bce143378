"""Queries over solved constraint systems (Section 3.2).

The solver follows the paper's implementation strategy: representative
function variables on constructors are *not* materialized during
resolution; the entailment computation reconstructs them.  Concretely, a
query asks which constants (base abstract values, such as the program
counter ``pc``) reach a set variable, and with which annotation classes.

:class:`Reachability` computes, for every variable ``X``, the set of
pairs ``(b, f)`` such that the constraints entail that the constant
``b``'s term — possibly nested inside constructors — appears in ``X``
annotated with class ``f``:

* a constructed lower bound ``b ⊆^f X`` contributes ``(b, f)`` directly;
* a lower bound ``c(..., A_i, ...) ⊆^f X`` contributes ``(b, then(g, f))``
  for every ``(b, g)`` reaching the argument variable ``A_i`` — the word
  seen by ``b`` is its own journey followed by the wrapper's journey,
  because ``·`` appends at every level of a term (Section 2.3).

Descending through a constructor that was never projected away is
exactly following a *partially matched* call: with
``through_constructors=True`` the computed relation is PN reachability
(Section 6.2); with ``False`` it is matched-only reachability.

:func:`trace_lower` and :meth:`Reachability.witness` reconstruct witness
paths from the solver's provenance — for the model checker these are the
statement sequences that drive the property automaton to its error
state (the ground terms' constructor spines are the runtime stacks).

:func:`least_solution_terms` enumerates annotated ground terms in a
variable's least solution up to a depth bound, which is what stack-aware
alias queries intersect (Section 7.5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable, Iterator

from repro.core.annotations import Annotation
from repro.core.solver import FactKey, Reason, Solver
from repro.core.terms import Constructed, GroundTerm, Variable


@dataclass(frozen=True)
class Origin:
    """How a ``(constant, annotation)`` pair arrived at a variable.

    ``kind`` is ``"direct"`` (a constant lower bound) or ``"nested"``
    (found inside a constructed lower bound); ``lower_fact`` is the
    solver fact it came from, and for nested origins ``inner`` is the
    ``(variable, constant, annotation)`` triple it was lifted from.
    """

    kind: str
    lower_fact: FactKey
    inner: tuple[Variable, Constructed, Annotation] | None = None


#: The origin of an entry that is a constant lower bound of its own
#: variable (its solver fact is ``("lower", var, const, ann)``).  Nested
#: entries store ``(src, outer, arg, inner)``: lifted through the lower
#: bound ``src ⊆^outer var`` from ``(const, inner)`` at ``arg``.  A
#: solver without provenance stores ``None`` (see
#: :meth:`repro.core.flatcore.FlatSolver.reach_table`).
DIRECT = ()

#: The empty row / annotation map of a variable nothing reaches.
_NOTHING: dict = {}


class Reachability:
    """Constants (with annotation classes) reaching each variable.

    The table holds one row per representative variable, mapping each
    reaching constant to ``{annotation: origin}``, so a query for one
    constant at one variable is a pair of dict lookups.  Origins are
    plain tuples (:data:`DIRECT` or ``(src, outer, arg, inner)``);
    :meth:`facts` turns them into :class:`Origin` objects.
    """

    def __init__(self, solver: Solver, through_constructors: bool = True):
        self.solver = solver
        self.through_constructors = through_constructors
        self._table: dict[Variable, dict[Constructed, dict[Annotation, Any]]] = {}
        self._compute()

    def _compute(self) -> None:
        solver = self.solver
        # The flat core computes the same table entirely over interned
        # ints and decodes it once at the end — delegate to it.
        reach_table = getattr(solver, "reach_table", None)
        if reach_table is not None:
            self._table = reach_table(self.through_constructors)
            return
        then = solver.algebra.then
        is_live = solver.algebra.is_live
        table = self._table
        through = self.through_constructors
        # wrappers[A] lists (row of X, src, outer) for constructed lower
        # bounds src ⊆^outer X that mention A as an argument: a fact
        # arriving at A lifts through each of them (delta propagation —
        # each (fact, wrapper) pair is processed exactly once).  Lifting
        # does NOT require the sibling arguments to be non-empty:
        # constructors are non-strict (§2.1), so ``c(t, ⊥)`` is a term of
        # the domain — this is exactly why the paper's domain carries ⊥.
        wrappers: dict[
            Variable, list[tuple[dict, Variable, Constructed, Annotation]]
        ] = {}
        work: deque[tuple[Variable, Constructed, Annotation]] = deque()
        find = solver.find
        # Argument variables repeat across the copies of a wrapper term
        # the solve made; resolve each one once.
        roots: dict[Variable, Variable] = {}
        # The lower-bound table in insertion order, representatives
        # only: merged-away variables share their representative's
        # solved form, and every lookup resolves through find().  The
        # order is that of the solve, not of string hashes, so the first
        # derivation recorded (the printed witness) is the same in every
        # process.
        for var, bucket in solver.lower_table():
            if not bucket or find(var) != var:
                continue
            row = table[var] = {}
            for src, ann in bucket:
                args = src.args
                if not args:
                    # Bucket keys are distinct (src, ann) pairs and no
                    # nested entry exists yet: every one is new.
                    anns = row.get(src)
                    if anns is None:
                        anns = row[src] = {}
                    anns[ann] = DIRECT
                    work.append((var, src, ann))
                elif through:
                    for arg in args:
                        rep = roots.get(arg)
                        if rep is None:
                            rep = roots[arg] = find(arg)
                        lifted = wrappers.get(rep)
                        if lifted is None:
                            wrappers[rep] = [(row, var, src, ann)]
                        else:
                            lifted.append((row, var, src, ann))
        if not through:
            return
        while work:
            arg, const, inner = work.popleft()
            lifted = wrappers.get(arg)
            if lifted is None:
                continue
            for row, target, src, outer in lifted:
                combined = then(inner, outer)
                if not is_live(combined):
                    continue
                anns = row.get(const)
                if anns is None:
                    anns = row[const] = {}
                if combined not in anns:
                    anns[combined] = (src, outer, arg, inner)
                    work.append((target, const, combined))

    # -- lookups ---------------------------------------------------------------

    def _row(self, var: Variable) -> dict[Constructed, dict[Annotation, Any]]:
        # Queries may be phrased with variables that cycle elimination
        # merged away; their solved form lives at the representative.
        return self._table.get(self.solver.find(var), _NOTHING)

    def facts(
        self, var: Variable
    ) -> Iterator[tuple[Constructed, Annotation, Origin]]:
        rep = self.solver.find(var)
        for const, anns in self._table.get(rep, _NOTHING).items():
            for ann, origin in anns.items():
                if origin is None:
                    # No provenance: the placeholder every query
                    # degrades on (no stack, empty witness).
                    yield const, ann, Origin("direct", ("lower", None, None, None))
                elif not origin:  # DIRECT
                    yield const, ann, Origin("direct", ("lower", rep, const, ann))
                else:
                    src, outer, arg, inner = origin
                    yield const, ann, Origin(
                        "nested", ("lower", rep, src, outer), (arg, const, inner)
                    )

    def annotations_of(
        self, var: Variable, const: Constructed
    ) -> set[Annotation]:
        return set(self._row(var).get(const, _NOTHING))

    def constants(self, var: Variable) -> set[Constructed]:
        return set(self._row(var))

    def reaches(
        self,
        var: Variable,
        const: Constructed,
        accepting: Any = None,
    ) -> bool:
        """Does ``const`` reach ``var`` with an accepting annotation?

        ``accepting`` is a predicate on annotations; it defaults to the
        algebra's ``is_accepting`` (membership of the annotation's words
        in ``L(M)``, i.e. the Section 3.2 entailment query).
        """
        if accepting is None:
            accepting = self.solver.algebra.is_accepting
        return any(accepting(ann) for ann in self._row(var).get(const, _NOTHING))

    # -- witnesses ---------------------------------------------------------------

    def stack_of(
        self, var: Variable, const: Constructed, annotation: Annotation
    ) -> list[str]:
        """The constructor spine enclosing ``const`` at ``var``.

        Section 6.2: in the model-checking encoding the sequence of
        constructors in a witness term is a possible runtime stack —
        the pending (unreturned) call sites, innermost first.
        """
        origin = self._row(var).get(const, _NOTHING).get(annotation)
        stack: list[str] = []
        while origin:
            src, _outer, arg, inner = origin
            stack.append(src.constructor.name)
            origin = self._table.get(arg, _NOTHING).get(const, _NOTHING).get(inner)
        return stack

    def witness(
        self, var: Variable, const: Constructed, annotation: Annotation
    ) -> list[Any]:
        """A witness trace (the ``info`` payloads of given constraints).

        Reconstructs one derivation of ``(const, annotation)`` at
        ``var``: the inner journey of the constant, then the wrapper's
        journey, recursively.  Returns the ordered list of non-``None``
        ``info`` values along the derivation.
        """
        solver = self.solver
        rep = solver.find(var)
        origin = self._table.get(rep, _NOTHING).get(const, _NOTHING).get(annotation)
        # Outer journeys are met first; the trace lists them last.
        parts: list[list[Any]] = []
        while origin is not None:
            if not origin:  # DIRECT
                parts.append(trace_lower(solver, ("lower", rep, const, annotation)))
                break
            src, outer, arg, inner = origin
            parts.append(trace_lower(solver, ("lower", rep, src, outer)))
            rep, annotation = arg, inner
            origin = self._table.get(rep, _NOTHING).get(const, _NOTHING).get(annotation)
        return [step for part in reversed(parts) for step in part]


def trace_lower(solver: Solver, fact: FactKey) -> list[Any]:
    """Witness trace for a lower-bound fact via provenance unwinding.

    Walks ``trans`` reasons back to the originally given constraint,
    collecting the ``info`` payloads of the constraints whose edges the
    source crossed, in path order.
    """
    trace: list[Any] = []
    seen: set[FactKey] = set()
    cursor: FactKey | None = fact
    suffix: list[Any] = []
    while cursor is not None and cursor not in seen:
        seen.add(cursor)
        reason = solver.reason(cursor)
        if reason is None:
            break
        if reason.rule == "given":
            if reason.info is not None:
                trace.append(reason.info)
            break
        if reason.rule == "trans":
            prev_lower, edge = reason.antecedents
            edge_reason = solver.reason(edge)
            if edge_reason is not None and edge_reason.info is not None:
                suffix.append(edge_reason.info)
            cursor = prev_lower
            continue
        if reason.info is not None:
            trace.append(reason.info)
        break
    trace.extend(reversed(suffix))
    return trace


def least_solution_terms(
    solver: Solver,
    var: Variable,
    max_depth: int = 3,
    max_terms: int = 10_000,
) -> set[GroundTerm]:
    """Annotated ground terms in ``var``'s least solution, to a depth.

    Terms are built from the solved form's lower bounds: a bound
    ``c(A_1, ..., A_k) ⊆^f var`` contributes ``c``-terms whose children
    come from the ``A_i`` and whose every level is appended with ``f``
    (annotations here are algebra elements, not words).  The enumeration
    is cut off at ``max_depth`` constructor levels — recursive
    constraints denote infinite term sets.
    """
    then = solver.algebra.then

    def append(term: GroundTerm, ann: Annotation) -> GroundTerm:
        return GroundTerm(
            term.constructor,
            then(term.annotation, ann),
            tuple(append(child, ann) for child in term.children),
        )

    budget = [max_terms]

    def terms_of(target: Variable, depth: int) -> set[GroundTerm]:
        if depth <= 0 or budget[0] <= 0:
            return set()
        results: set[GroundTerm] = set()
        for src, ann in solver.lower_bounds(target):
            if budget[0] <= 0:
                break
            if src.is_constant:
                results.add(
                    append(GroundTerm(src.constructor, solver.algebra.identity), ann)
                )
                budget[0] -= 1
            else:
                child_sets = [terms_of(arg, depth - 1) for arg in src.args]
                if any(not choices for choices in child_sets):
                    continue
                combos: list[tuple[GroundTerm, ...]] = [()]
                for choices in child_sets:
                    combos = [
                        prefix + (child,)
                        for prefix in combos
                        for child in choices
                    ]
                for children in combos:
                    if budget[0] <= 0:
                        break
                    base = GroundTerm(
                        src.constructor, solver.algebra.identity, children
                    )
                    results.add(append(base, ann))
                    budget[0] -= 1
        return results

    return terms_of(var, max_depth)
