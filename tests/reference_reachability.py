"""Reference reachability table for the differential query-layer tests.

The ``repro.core.queries.Reachability`` that preceded the row-per-constant
rewrite, kept as the oracle the rewrite is checked against.  It keys
each variable's bucket by ``(constant, annotation)`` pairs and allocates
one :class:`~repro.core.queries.Origin` per entry.  One deliberate
difference: it always runs its own propagation over the solver's public
accessors (``variables``, ``find``, ``lower_bounds``), where the original
handed flat-core solvers to ``FlatSolver.reach_table``, so it checks the
flat core's table too.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.annotations import Annotation
from repro.core.queries import Origin
from repro.core.terms import Constructed, Variable


class ReferenceReachability:
    """Constants (with annotation classes) reaching each variable."""

    def __init__(self, solver: Any, through_constructors: bool = True):
        self.solver = solver
        self.through_constructors = through_constructors
        self._table: dict[
            Variable, dict[tuple[Constructed, Annotation], Origin]
        ] = {}
        self._compute()

    def _compute(self) -> None:
        solver = self.solver
        then = solver.algebra.then
        is_live = solver.algebra.is_live
        table = self._table
        # wrappers[A] lists (X, src, outer) for constructed lower bounds
        # src ⊆^outer X that mention A as an argument: a fact arriving at
        # A lifts through each of them.
        wrappers: dict[Variable, list[tuple[Variable, Constructed, Annotation]]] = {}
        work: deque[tuple[Variable, Constructed, Annotation]] = deque()
        find = solver.find
        for var in solver.variables():
            if find(var) != var:
                continue
            bucket = table.setdefault(var, {})
            for src, ann in solver.lower_bounds(var):
                if src.is_constant:
                    key = (src, ann)
                    if key not in bucket:
                        bucket[key] = Origin("direct", ("lower", var, src, ann))
                        work.append((var, src, ann))
                elif self.through_constructors:
                    for arg in src.args:
                        wrappers.setdefault(find(arg), []).append((var, src, ann))
        if not self.through_constructors:
            return
        while work:
            arg, const, inner = work.popleft()
            for target, src, outer in wrappers.get(arg, ()):
                combined = then(inner, outer)
                if not is_live(combined):
                    continue
                bucket = table[target]
                key = (const, combined)
                if key not in bucket:
                    bucket[key] = Origin(
                        "nested",
                        ("lower", target, src, outer),
                        (arg, const, inner),
                    )
                    work.append((target, const, combined))

    def _bucket(self, var: Variable) -> dict[tuple[Constructed, Annotation], Origin]:
        return self._table.get(self.solver.find(var), {})

    def annotations_of(self, var: Variable, const: Constructed) -> set[Annotation]:
        return {ann for (c, ann) in self._bucket(var) if c == const}

    def constants(self, var: Variable) -> set[Constructed]:
        return {c for (c, _ann) in self._bucket(var)}

    def reaches(
        self, var: Variable, const: Constructed, accepting: Any = None
    ) -> bool:
        if accepting is None:
            accepting = self.solver.algebra.is_accepting
        return any(accepting(ann) for ann in self.annotations_of(var, const))
