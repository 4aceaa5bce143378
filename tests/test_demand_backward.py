"""Tests for the backward demand solver and solver order-independence."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotations import MonoidAlgebra
from repro.core.demand import DemandBackwardSolver, DemandForwardSolver
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable, constant
from repro.dfa.gallery import one_bit_machine, privilege_machine
from tests.test_demand import bidirectional_accepting, workload_cases


class TestBackwardBasics:
    def test_simple_chain(self):
        machine = privilege_machine()
        solver = DemandBackwardSolver(machine)
        a, b, c = Variable("A"), Variable("B"), Variable("C")
        solver.add(a, b, ["seteuid_zero"])
        solver.add(b, c, ["execl"])
        solution = solver.solve_to(c)
        assert solver.can_reach(solution, a)
        assert not solver.can_reach(solution, b)

    def test_alphabet_check(self):
        solver = DemandBackwardSolver(one_bit_machine())
        with pytest.raises(ValueError, match="'nope'"):
            solver.add(Variable("X"), Variable("Y"), ["nope"])

    def test_through_wrap_and_unwrap(self):
        machine = privilege_machine()
        solver = DemandBackwardSolver(machine)
        o = Constructor("o", 1)
        caller, entry, exit_, after = (
            Variable(n) for n in ("C", "En", "Ex", "Af")
        )
        solver.add(caller, entry_pre := Variable("P"), ["seteuid_zero"])
        solver.add(o(entry_pre), entry)
        solver.add(entry, exit_, ["execl"])
        solver.add(o.proj(1, exit_), after)
        solution = solver.solve_to(after)
        assert solver.can_reach(solution, caller, matched_only=True)

    def test_annotation_count_bounded_by_reversed_states(self):
        machine = privilege_machine()
        solver = DemandBackwardSolver(machine)
        variables = [Variable(f"v{i}") for i in range(8)]
        symbols = sorted(machine.alphabet)
        rng = random.Random(3)
        for _ in range(30):
            a, b = rng.randrange(8), rng.randrange(8)
            solver.add(variables[a], variables[b], [rng.choice(symbols)])
        solution = solver.solve_to(variables[0])
        bound = solver.reversed_machine.n_states
        assert solution.max_states_per_variable() <= bound


def _random_instance(seed: int):
    machine = privilege_machine()
    rng = random.Random(seed)
    symbols = sorted(machine.alphabet)
    n = rng.randrange(4, 9)
    variables = [Variable(f"v{i}") for i in range(n)]
    ctor = Constructor("w", 1)
    constraints = []
    for _ in range(rng.randrange(4, 14)):
        a, b = rng.randrange(n), rng.randrange(n)
        kind = rng.random()
        if kind < 0.6:
            word = [rng.choice(symbols)] if rng.random() < 0.6 else []
            constraints.append(("plain", variables[a], variables[b], word))
        elif kind < 0.8:
            constraints.append(("wrap", variables[a], variables[b], ()))
        else:
            constraints.append(("unwrap", variables[a], variables[b], ()))
    return machine, variables, ctor, constraints


def _load(target, ctor, constraints):
    for kind, a, b, word in constraints:
        if kind == "plain":
            target.add(a, b, word)
        elif kind == "wrap":
            target.add(ctor(a), b)
        else:
            target.add(ctor.proj(1, a), b)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_backward_agrees_with_forward_on_matched_reachability(seed):
    machine, variables, ctor, constraints = _random_instance(seed)
    forward = DemandForwardSolver(machine)
    backward = DemandBackwardSolver(machine)
    _load(forward, ctor, constraints)
    _load(backward, ctor, constraints)
    forward.add_source("c", variables[0])
    forward_solution = forward.solve("c")
    for target in variables:
        forward_hit = forward_solution.reaches(target, matched_only=True)
        backward_solution = backward.solve_to(target)
        backward_hit = backward.can_reach(
            backward_solution, variables[0], matched_only=True
        )
        assert forward_hit == backward_hit, (seed, target)


@given(workload_cases())
@settings(max_examples=80, deadline=None)
def test_backward_agrees_with_bidirectional_on_sources(case):
    """Backward solving to every variable in turn: some source reaches
    the target along a word of L(M) iff the bidirectional solver says
    the target is reached from a source."""
    machine, workload = case
    expected = bidirectional_accepting(machine, workload)
    solver = DemandBackwardSolver(machine)
    variables = [Variable(f"v{i}") for i in range(workload.n_vars)]
    for u, v, word in workload.edges:
        solver.add(variables[u], variables[v], word)
    for target in range(workload.n_vars):
        solution = solver.solve_to(variables[target])
        hits = any(
            solver.can_reach(solution, variables[source])
            for source in workload.sources
        )
        assert hits == (target in expected), target


class TestOrderIndependence:
    """The solved form must not depend on constraint-insertion order
    (the resolution rules are applied 'in any order', Section 3)."""

    def _facts(self, solver: Solver):
        # The canonical (cycle-quotient) solved form: insertion order may
        # change *which* identity cycles the bounded online sampler
        # collapses, but never the solved form modulo the full quotient.
        return set(solver.canonical_facts())

    def test_permutations_of_example_24(self):
        machine = one_bit_machine()
        o = Constructor("o", 1)
        c = constant("c")
        W, X, Y, Z = (Variable(n) for n in "WXYZ")

        def build(order):
            algebra = MonoidAlgebra(machine)
            solver = Solver(algebra)
            steps = [
                lambda: solver.add(c, W, algebra.word("g")),
                lambda: solver.add(o(W), X, algebra.word("g")),
                lambda: solver.add(X, o(Y)),
                lambda: solver.add(o(Y), Z),
            ]
            for index in order:
                steps[index]()
            return self._facts(solver)

        reference = build((0, 1, 2, 3))
        for order in itertools.permutations(range(4)):
            assert build(order) == reference, order

    @given(st.integers(min_value=0, max_value=50_000), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_random_systems_order_independent(self, seed, shuffler):
        machine, variables, ctor, constraints = _random_instance(seed)
        source = constant("c")

        def build(order):
            algebra = MonoidAlgebra(machine)
            solver = Solver(algebra)
            solver.add(source, variables[0])
            for index in order:
                kind, a, b, word = constraints[index]
                if kind == "plain":
                    solver.add(a, b, algebra.word(word))
                elif kind == "wrap":
                    solver.add(ctor(a), b)
                else:
                    solver.add(ctor.proj(1, a), b)
            return self._facts(solver)

        order = list(range(len(constraints)))
        reference = build(order)
        shuffler.shuffle(order)
        assert build(order) == reference, (seed, order)
