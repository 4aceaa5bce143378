"""The query layer against its reference, on generated systems.

:class:`repro.core.queries.Reachability` keeps one row per variable,
mapping each reaching constant to its annotations, and the flat core
builds the same rows over ints.  ``tests/reference_reachability.py``
is the pair-keyed table it replaced, recomputed here from each
solver's public accessors.  Every ``annotations_of``, ``constants`` and
``reaches`` answer must agree with it, on both cores, with cycle
elimination on and off, after ``DeltaSolver`` patches and after a
dump/load round trip.  The count-only ``fact_count`` must agree with
the canonical solved form it counts.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.annotations import (
    CompiledGenKillAlgebra,
    CompiledMonoidAlgebra,
    MonoidAlgebra,
)
from repro.core.flatcore import FlatSolver
from repro.core.persist import dump_solver, load_solver
from repro.core.queries import Reachability
from repro.core.solver import Solver
from repro.core.terms import Constructed, Constructor, Variable, constant
from repro.dfa.gallery import privilege_machine
from repro.incremental import DeltaSolver, UnsupportedConstraintError
from tests.reference_reachability import ReferenceReachability

WRAP = Constructor("w", 1)
PAIR = Constructor("p", 2)
CONSTANTS = [constant("k0"), constant("k1")]


def _algebra(kind: str):
    if kind == "genkill":
        return CompiledGenKillAlgebra(4)
    if kind == "monoid":
        return MonoidAlgebra(privilege_machine())
    return CompiledMonoidAlgebra(privilege_machine())


def _constraints(seed: int, algebra, n_vars: int) -> list[tuple]:
    """Identity-edge-heavy systems (cycles to merge) with constant
    lowers, one- and two-argument wrappers, projections and uppers."""
    rng = random.Random(seed)
    variables = [Variable(f"v{i}") for i in range(n_vars)]
    identity = algebra.identity
    if isinstance(algebra, CompiledGenKillAlgebra):
        anns = [
            algebra.of_effect([rng.randrange(4)], [rng.randrange(4)])
            for _ in range(4)
        ]
    elif isinstance(algebra, MonoidAlgebra):
        anns = [algebra.symbol(sym) for sym in sorted(algebra.machine.alphabet)]
    else:
        anns = list(range(algebra.size()))

    def var() -> Variable:
        return variables[rng.randrange(n_vars)]

    def ann() -> object:
        return rng.choice(anns) if rng.random() < 0.3 else identity

    out: list[tuple] = []
    for _ in range(rng.randrange(6, 30)):
        roll = rng.random()
        if roll < 0.5:
            out.append((var(), var(), ann()))
        elif roll < 0.62:
            out.append((rng.choice(CONSTANTS), var(), ann()))
        elif roll < 0.75:
            out.append((Constructed(WRAP, (var(),)), var(), ann()))
        elif roll < 0.82:
            out.append((Constructed(PAIR, (var(), var())), var(), identity))
        elif roll < 0.92:
            ctor, index = rng.choice([(WRAP, 1), (PAIR, 1), (PAIR, 2)])
            out.append((ctor.proj(index, var()), var(), identity))
        else:
            out.append((var(), Constructed(WRAP, (var(),)), identity))
    return out


def _system(seed: int, algebra_kind: str, core: str, cycle_elim: bool, stage: str):
    """A solved system, cold, patched or reloaded from a dump."""
    algebra = _algebra(algebra_kind)
    rng = random.Random(seed)
    n_vars = rng.randrange(3, 9)
    constraints = _constraints(seed, algebra, n_vars)
    if core == "flat":
        solver = FlatSolver(algebra, cycle_elim=cycle_elim)
    else:
        solver = Solver(
            algebra,
            record_reasons=stage == "patched" or rng.random() < 0.5,
            cycle_elim=cycle_elim,
        )
    solver.add_many(constraints)
    if stage == "patched":
        delta = DeltaSolver(solver, [(*c, None) for c in constraints])
        retracts = rng.sample(constraints, k=min(len(constraints), 3))
        adds = [(*c, None) for c in _constraints(seed + 1, algebra, n_vars)[:4]]
        try:
            delta.patch(adds=adds, retracts=retracts)
        except UnsupportedConstraintError:
            pass
    elif stage == "loaded":
        solver = load_solver(dump_solver(solver))
    return solver


def _assert_queries_match(solver) -> None:
    for through in (True, False):
        reach = Reachability(solver, through_constructors=through)
        ref = ReferenceReachability(solver, through_constructors=through)
        variables = solver.variables() | {Variable(f"v{i}") for i in range(9)}
        for var in sorted(variables, key=lambda v: v.name):
            assert reach.constants(var) == ref.constants(var), (var, through)
            for const in CONSTANTS:
                assert reach.annotations_of(var, const) == ref.annotations_of(
                    var, const
                ), (var, const, through)
                assert reach.reaches(var, const) == ref.reaches(var, const)
                assert {
                    a for c, a, _origin in reach.facts(var) if c == const
                } == ref.annotations_of(var, const)


def _assert_count_matches(solver) -> None:
    if solver.cycle_elim:
        assert solver.fact_count() == sum(1 for _ in solver.canonical_facts())
    else:
        raw = sum(
            len(list(solver.lower_bounds(v)))
            + len(list(solver.upper_bounds(v)))
            + len(list(solver.edges_from(v)))
            + len(list(solver.projection_sinks(v)))
            for v in solver.variables()
        )
        assert solver.fact_count() == raw


class TestQueriesMatchReference:
    @given(
        st.integers(min_value=0, max_value=1_000_000),
        st.sampled_from(["compiled", "genkill", "monoid"]),
        st.booleans(),
        st.sampled_from(["cold", "patched", "loaded"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_object_core(self, seed, algebra_kind, cycle_elim, stage):
        # snapshots serialize monoid algebras only
        assume(stage != "loaded" or algebra_kind != "genkill")
        solver = _system(seed, algebra_kind, "object", cycle_elim, stage)
        _assert_queries_match(solver)
        _assert_count_matches(solver)

    @given(
        st.integers(min_value=0, max_value=1_000_000),
        st.sampled_from(["compiled", "genkill"]),
        st.booleans(),
        st.sampled_from(["cold", "loaded"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_flat_core(self, seed, algebra_kind, cycle_elim, stage):
        assume(stage != "loaded" or algebra_kind != "genkill")
        solver = _system(seed, algebra_kind, "flat", cycle_elim, stage)
        _assert_queries_match(solver)
        _assert_count_matches(solver)

    def test_shared_collapse_map_gives_the_same_facts(self):
        # dump_solver hands collapse_map() to canonical_facts(); the
        # stream must be the one canonical_facts() computes on its own.
        for seed in range(60):
            for core in ("object", "flat"):
                solver = _system(seed, "compiled", core, True, "cold")
                assert list(solver.canonical_facts(solver.collapse_map())) == list(
                    solver.canonical_facts()
                ), (seed, core)
