"""Tests for the demand-driven forward solver (Section 5 realized).

The key agreement property: on pure annotated reachability instances,
the forward solver and the bidirectional solver must agree on "does a
source reach a variable along a word of L(M)?" — while the number of
derived annotations differs exactly as the paper predicts (|S| versus
|F_M^≡|).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import build_cfg
from repro.core.annotations import MonoidAlgebra
from repro.core.budget import Budget, CancellationToken
from repro.core.demand import DemandForwardSolver
from repro.core.errors import ConstraintError, SolverBudgetExceeded, SolverCancelled
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable, constant
from repro.dfa.gallery import adversarial_machine, one_bit_machine, privilege_machine
from repro.dfa.regex import regex_to_dfa
from repro.modelcheck import (
    AnnotatedChecker,
    DemandChecker,
    chroot_property,
    file_state_property,
    full_privilege_property,
    simple_privilege_property,
)
from repro.synth import load_forward, random_annotated_graph
from tests.test_cross_validation import random_program

MACHINES = {
    "one_bit": one_bit_machine(),
    "privilege": privilege_machine(),
    "regex": regex_to_dfa("a(b|c)*d"),
}


def bidirectional_accepting(machine, workload):
    """Ground truth via the bidirectional solver: which variables are
    reached from a source along a word of L(M)?"""
    algebra = MonoidAlgebra(machine)
    solver = Solver(algebra)
    variables = [Variable(f"v{i}") for i in range(workload.n_vars)]
    marker = constant("src")
    for index in workload.sources:
        solver.add(marker, variables[index])
    for u, v, word in workload.edges:
        solver.add(variables[u], variables[v], algebra.word(word))
    reached = set()
    for i, var in enumerate(variables):
        for src, ann in solver.lower_bounds(var):
            if src == marker and algebra.is_accepting(ann):
                reached.add(i)
                break
    return reached


@st.composite
def workload_cases(draw):
    name = draw(st.sampled_from(sorted(MACHINES)))
    machine = MACHINES[name]
    n_vars = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=1, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    workload = random_annotated_graph(machine, n_vars, n_edges, seed=seed)
    return machine, workload


class TestFragmentLoading:
    def setup_method(self):
        self.solver = DemandForwardSolver(privilege_machine())

    def test_rejects_annotated_constructed(self):
        box = Constructor("box", 1)
        with pytest.raises(ConstraintError):
            self.solver.add(box(Variable("X")), Variable("Y"), ["execl"])

    def test_rejects_nonvariable_args(self):
        box = Constructor("box", 1)
        with pytest.raises(ConstraintError):
            self.solver.add(box(constant("c")), Variable("Y"))

    def test_rejects_constructed_rhs(self):
        box = Constructor("box", 1)
        with pytest.raises(ConstraintError):
            self.solver.add(Variable("X"), box(Variable("Y")))

    def test_alphabet_check(self):
        solver = DemandForwardSolver(one_bit_machine())
        x, y = Variable("X"), Variable("Y")
        with pytest.raises(ValueError, match="'nope'"):
            solver.add(x, y, ["g", "nope"])
        with pytest.raises(ValueError, match="'nope'"):
            solver.add_source("pc", x, ["nope"])


class TestTabulation:
    def test_plain_chain(self):
        machine = privilege_machine()
        solver = DemandForwardSolver(machine)
        a, b, c = Variable("A"), Variable("B"), Variable("C")
        solver.add_source("pc", a)
        solver.add(a, b, ["seteuid_zero"])
        solver.add(b, c, ["execl"])
        solution = solver.solve("pc")
        error = machine.run(["seteuid_zero", "execl"])
        assert error in solution.states_of(c)
        assert solution.reaches(c)
        assert not solution.reaches(b)

    def test_dead_prefix_pruned(self):
        solver = DemandForwardSolver(regex_to_dfa("ab"))
        a, b = Variable("A"), Variable("B")
        solver.add_source("pc", a)
        solver.add(a, b, ["b"])  # 'b' first is a dead prefix
        assert not solver.solve("pc").states_of(b)

    def test_budget_interrupts_and_the_next_solve_starts_over(self):
        machine = privilege_machine()
        solver = DemandForwardSolver(machine)
        chain = [Variable(f"V{i}") for i in range(6)]
        solver.add_source("pc", chain[0])
        for u, v in zip(chain, chain[1:]):
            solver.add(u, v)
        with pytest.raises(SolverBudgetExceeded) as exc:
            solver.solve("pc", budget=Budget(max_steps=3))
        assert exc.value.limit == "steps"
        progress = exc.value.progress
        assert (progress["steps"], progress["facts"], progress["pending"]) == (3, 3, 1)
        token = CancellationToken()
        token.cancel()
        with pytest.raises(SolverCancelled):
            solver.solve("pc", budget=Budget(token=token))
        budget = Budget(max_steps=100)
        solution = solver.solve("pc", budget=budget)
        assert budget.steps == solution.fact_count == len(chain)
        assert solution.states_of(chain[-1]) == {machine.start}

    def test_wrap_unwrap_matching(self):
        machine = privilege_machine()
        solver = DemandForwardSolver(machine)
        o1, o2 = Constructor("o1", 1), Constructor("o2", 1)
        caller1, caller2, entry, exit_, after1, after2 = (
            Variable(n) for n in ("C1", "C2", "En", "Ex", "A1", "A2")
        )
        solver.add_source("pc", caller1)
        solver.add_source("pc", caller2, ["seteuid_zero"])
        solver.add(o1(caller1), entry)
        solver.add(o2(caller2), entry)
        solver.add(entry, exit_)
        solver.add(o1.proj(1, exit_), after1)
        solver.add(o2.proj(1, exit_), after2)
        solution = solver.solve("pc")
        unpriv, priv = machine.start, machine.run(["seteuid_zero"])
        # contexts stay separate: caller1's state returns only to after1
        assert solution.states_of(after1) == {unpriv}
        assert solution.states_of(after2) == {priv}

    def test_matched_vs_pn(self):
        machine = privilege_machine()
        solver = DemandForwardSolver(machine)
        o = Constructor("o", 1)
        caller, entry = Variable("C"), Variable("En")
        solver.add_source("pc", caller)
        solver.add(o(caller), entry)
        solution = solver.solve("pc")
        # inside the pending wrap: PN sees it, matched does not
        assert solution.states_of(entry)
        assert not solution.states_of(entry, matched_only=True)
        assert solution.states_of(caller, matched_only=True)

    def test_summaries_reused_across_callers(self):
        machine = privilege_machine()
        solver = DemandForwardSolver(machine)
        o1, o2 = Constructor("o1", 1), Constructor("o2", 1)
        c1, c2, entry, exit_, r1, r2 = (
            Variable(n) for n in ("c1", "c2", "en", "ex", "r1", "r2")
        )
        solver.add_source("pc", c1)
        solver.add_source("pc", c2)
        solver.add(o1(c1), entry)
        solver.add(o2(c2), entry)
        solver.add(entry, exit_, ["seteuid_zero"])
        solver.add(o1.proj(1, exit_), r1)
        solver.add(o2.proj(1, exit_), r2)
        solution = solver.solve("pc")
        priv = machine.run(["seteuid_zero"])
        assert solution.states_of(r1) == {priv}
        assert solution.states_of(r2) == {priv}

    def test_forward_state_bound(self):
        machine = adversarial_machine(4)
        solver = DemandForwardSolver(machine)
        variables = [Variable(f"v{i}") for i in range(10)]
        solver.add_source("pc", variables[0])
        symbols = sorted(machine.alphabet)
        for i in range(9):
            for sym in symbols:
                solver.add(variables[i], variables[i + 1], [sym])
                solver.add(variables[i + 1], variables[i], [sym])
        solution = solver.solve("pc")
        assert solution.max_states_per_variable() <= machine.n_states


@given(workload_cases())
@settings(max_examples=80, deadline=None)
def test_forward_agrees_with_bidirectional(case):
    machine, workload = case
    expected = bidirectional_accepting(machine, workload)
    solution = load_forward(machine, workload).solve("src")
    actual = {
        i for i in range(workload.n_vars) if solution.reaches(Variable(f"v{i}"))
    }
    assert actual == expected


class TestDemandChecker:
    def test_sec63(self):
        source = """
        int main() {
          seteuid(0);
          if (c) { seteuid(getuid()); } else { other(); }
          execl("/bin/sh", 0);
          return 0;
        }
        """
        checker = DemandChecker(build_cfg(source), simple_privilege_property())
        assert checker.has_violation()
        assert checker.violation_nodes()

    def test_clean(self):
        source = "int main() { seteuid(0); seteuid(getuid()); execl(\"/x\", 0); }"
        checker = DemandChecker(build_cfg(source), simple_privilege_property())
        assert not checker.has_violation()

    def test_states_at(self):
        source = "int main() { seteuid(0); done(); }"
        cfg = build_cfg(source)
        prop = simple_privilege_property()
        checker = DemandChecker(cfg, prop)
        priv = prop.machine.run(["seteuid_zero"])
        assert priv in checker.states_at(cfg.main.exit)

    def test_parametric_rejected(self):
        cfg = build_cfg("int main() { return 0; }")
        with pytest.raises(ValueError):
            DemandChecker(cfg, file_state_property())

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_bidirectional(self, seed):
        cfg = build_cfg(random_program(seed))
        prop = simple_privilege_property()
        bidirectional = AnnotatedChecker(cfg, prop).check().has_violation
        demand = DemandChecker(cfg, prop).has_violation()
        assert bidirectional == demand, seed

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_agrees_on_full_privilege(self, seed):
        cfg = build_cfg(random_program(seed))
        prop = full_privilege_property()
        bidirectional = AnnotatedChecker(cfg, prop).check().has_violation
        demand = DemandChecker(cfg, prop).has_violation()
        assert bidirectional == demand, seed

    def test_chroot_agreement(self):
        source = """
        int main() { chroot("/jail"); open("x", 0); return 0; }
        """
        cfg = build_cfg(source)
        assert DemandChecker(cfg, chroot_property()).has_violation()


class TestDemandTraces:
    def test_trace_reaches_back_to_source(self):
        machine = privilege_machine()
        solver = DemandForwardSolver(machine)
        chain = [Variable(f"v{i}") for i in range(4)]
        solver.add_source("pc", chain[0])
        solver.add(chain[0], chain[1], ["seteuid_zero"])
        solver.add(chain[1], chain[2])
        solver.add(chain[2], chain[3], ["execl"])
        solution = solver.solve("pc")
        error = machine.run(["seteuid_zero", "execl"])
        trace = solution.trace(chain[3], error)
        assert trace[0] == (chain[0], machine.start)
        assert trace[-1] == (chain[3], error)
        # states along the trace are monotone wrt the machine run
        assert len(trace) == 4

    def test_trace_through_call(self):
        machine = privilege_machine()
        solver = DemandForwardSolver(machine)
        o = Constructor("o", 1)
        caller, entry, exit_, after = (
            Variable(n) for n in ("C", "En", "Ex", "Af")
        )
        solver.add_source("pc", caller, ["seteuid_zero"])
        solver.add(o(caller), entry)
        solver.add(entry, exit_, ["execl"])
        solver.add(o.proj(1, exit_), after)
        solution = solver.solve("pc")
        error = machine.run(["seteuid_zero", "execl"])
        trace = solution.trace(after, error)
        assert trace
        assert trace[-1] == (after, error)
        variables = [fact[0] for fact in trace]
        assert entry in variables  # the path went through the callee

    def test_missing_fact_has_empty_trace(self):
        machine = privilege_machine()
        solver = DemandForwardSolver(machine)
        x = Variable("X")
        solver.add_source("pc", x)
        solution = solver.solve("pc")
        assert solution.trace(Variable("ghost"), 0) == []


class TestDemandCheckerWitness:
    def test_witness_statement_path(self):
        source = """
        int main() {
          seteuid(0);
          other();
          execl("/bin/sh", 0);
          return 0;
        }
        """
        cfg = build_cfg(source)
        prop = simple_privilege_property()
        checker = DemandChecker(cfg, prop)
        assert checker.has_violation()
        error_node = checker.violation_nodes()[0]
        error_state = next(
            s for s in checker.states_at(error_node)
            if s in prop.machine.accepting
        )
        trace = checker.witness(error_node, error_state)
        assert trace
        assert trace[0].kind == "entry"
        assert trace[-1].id == error_node.id
        lines = [n.line for n in trace]
        assert any(l == 3 for l in lines)  # passes the seteuid(0)

    def test_cli_demand_engine(self, tmp_path=None):
        import pathlib
        import tempfile

        from repro.cli import main as cli_main

        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "p.c"
            path.write_text(
                'int main() { seteuid(0); execl("/x", 0); }'
            )
            assert (
                cli_main(
                    [
                        "check",
                        str(path),
                        "--property",
                        "simple-privilege",
                        "--engine",
                        "demand",
                    ]
                )
                == 1
            )
