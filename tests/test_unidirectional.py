"""Tests for the forward/backward solvers (Section 5) on annotated graphs.

These instances are pure annotated reachability — variables and
annotated edges, no constructors — the shape E3 and E10 load through
``repro.synth.load_forward``.  The forward solver keeps at most |S|
derived annotations per variable; the backward solver's annotations are
states of the reversed machine, one per left-congruence class of path
suffixes.  Agreement with the bidirectional solver is checked in
``tests/test_demand.py`` and ``tests/test_demand_backward.py``.
"""

from repro.core.demand import DemandBackwardSolver
from repro.core.terms import Variable
from repro.dfa.gallery import adversarial_machine, one_bit_machine, privilege_machine
from repro.synth import load_forward, random_annotated_graph
from repro.synth.workloads import AnnotatedGraphWorkload

CHAIN = AnnotatedGraphWorkload(
    n_vars=3,
    edges=[(0, 1, ("seteuid_zero",)), (1, 2, ("execl",))],
    sources=[0],
    sinks=[2],
)


def load_backward(machine, workload):
    """The backward counterpart of ``load_forward``: every edge, no sources."""
    solver = DemandBackwardSolver(machine)
    for src, dst, word in workload.edges:
        solver.add(Variable(f"v{src}"), Variable(f"v{dst}"), word)
    return solver


class TestForwardSolver:
    def test_simple_chain(self):
        solution = load_forward(privilege_machine(), CHAIN).solve("src")
        assert solution.reaches(Variable("v2"))
        assert not solution.reaches(Variable("v1"))

    def test_derived_annotations_bounded_by_states(self):
        machine = adversarial_machine(4)
        workload = random_annotated_graph(machine, 12, 60, seed=5)
        solution = load_forward(machine, workload).solve("src")
        assert solution.variables()
        for var in solution.variables():
            assert len(solution.states_of(var)) <= machine.n_states


class TestBackwardSolver:
    def test_simple_chain(self):
        solver = load_backward(privilege_machine(), CHAIN)
        solution = solver.solve_to(Variable("v2"))
        assert solver.can_reach(solution, Variable("v0"))
        assert not solver.can_reach(solution, Variable("v1"))

    def test_classes_are_state_sets(self):
        machine = one_bit_machine()
        solver = DemandBackwardSolver(machine)
        a, b = Variable("a"), Variable("b")
        solver.add(a, b, ["g"])
        solution = solver.solve_to(b)
        reversed_machine = solver.reversed_machine
        # Each variable's class of suffixes to b is the reversed-machine
        # state reached on the reversed suffix.
        assert solution.states_of(b) == {reversed_machine.start}
        assert solution.states_of(a) == {reversed_machine.run(["g"])}
        for var in solution.variables():
            assert solution.states_of(var) <= set(range(reversed_machine.n_states))
