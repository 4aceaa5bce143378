"""Tests for serialization (persistence) and backtracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotations import (
    CompiledMonoidAlgebra,
    MonoidAlgebra,
    UnannotatedAlgebra,
)
from repro.core.persist import (
    dfa_from_dict,
    dfa_to_dict,
    dump_solver,
    load_solver,
)
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable, constant
from repro.dfa.gallery import one_bit_machine, pair_machine, privilege_machine


def facts_snapshot(solver: Solver):
    snapshot = {}
    for var in solver.variables():
        snapshot[var] = (
            frozenset(solver.lower_bounds(var)),
            frozenset(solver.upper_bounds(var)),
            frozenset(solver.edges_from(var)),
            frozenset(solver.projection_sinks(var)),
        )
    return snapshot


class TestDFASerialization:
    @pytest.mark.parametrize(
        "machine", [one_bit_machine(), privilege_machine(), pair_machine()],
        ids=["one-bit", "privilege", "pair"],
    )
    def test_round_trip(self, machine):
        loaded = dfa_from_dict(dfa_to_dict(machine))
        assert loaded.n_states == machine.n_states
        assert loaded.alphabet == machine.alphabet
        assert loaded.start == machine.start
        assert loaded.accepting == machine.accepting
        assert dict(loaded.delta) == dict(machine.delta)

    def test_tuple_symbols_round_trip(self):
        # the pair machine's symbols are nested tuples
        machine = pair_machine()
        loaded = dfa_from_dict(dfa_to_dict(machine))
        for word in machine.words(2):
            assert loaded.accepts(word)

    def test_json_safe(self):
        import json

        json.dumps(dfa_to_dict(privilege_machine()))


def build_sample_solver() -> Solver:
    algebra = MonoidAlgebra(privilege_machine())
    solver = Solver(algebra)
    o = Constructor("o1", 1)
    pc = constant("pc")
    a, entry, exit_, after = (Variable(n) for n in ("A", "En", "Ex", "Af"))
    solver.add(pc, a, algebra.word(["seteuid_zero"]))
    solver.add(o(a), entry)
    solver.add(entry, exit_, algebra.word(["execl"]))
    solver.add(o.proj(1, exit_), after)
    return solver


class TestSolverPersistence:
    def test_round_trip_preserves_facts(self):
        solver = build_sample_solver()
        loaded = load_solver(dump_solver(solver))
        assert facts_snapshot(loaded) == facts_snapshot(solver)

    def test_queries_work_after_load(self):
        from repro.core.queries import Reachability

        solver = build_sample_solver()
        loaded = load_solver(dump_solver(solver))
        reach = Reachability(loaded, through_constructors=True)
        pc = constant("pc")
        word = loaded.algebra.word(["seteuid_zero", "execl"])
        assert word in reach.annotations_of(Variable("Af"), pc)

    def test_online_solving_resumes_after_load(self):
        solver = build_sample_solver()
        loaded = load_solver(dump_solver(solver))
        # link new "client" constraints on top of the loaded library
        more = Variable("More")
        loaded.add(Variable("Af"), more)
        pc = constant("pc")
        word = loaded.algebra.word(["seteuid_zero", "execl"])
        assert loaded.has_lower(more, pc, word)

    def test_unannotated_round_trip(self):
        solver = Solver()
        solver.add(constant("c"), Variable("X"))
        solver.add(Variable("X"), Variable("Y"))
        loaded = load_solver(dump_solver(solver))
        assert facts_snapshot(loaded) == facts_snapshot(solver)

    def test_variance_preserved(self):
        solver = Solver()
        ref = Constructor("ref", 2, variance=(True, False))
        x, g, s = Variable("X"), Variable("G"), Variable("S")
        solver.add(ref(g, s), x)
        loaded = load_solver(dump_solver(solver))
        ((src, _ann),) = list(loaded.lower_bounds(x))
        assert src.constructor.variance == (True, False)

    def test_version_checked(self):
        import json

        bad = json.dumps({"version": 999})
        with pytest.raises(ValueError):
            load_solver(bad)

    def test_parametric_rejected(self):
        from repro.core.parametric import ParametricAlgebra
        from repro.dfa.gallery import file_state_machine

        solver = Solver(
            ParametricAlgebra(file_state_machine(), {"open": ("x",)})
        )
        with pytest.raises(TypeError):
            dump_solver(solver)


class TestBacktracking:
    def test_rollback_restores_snapshot(self):
        solver = build_sample_solver()
        before = facts_snapshot(solver)
        solver.mark()
        solver.add(constant("extra"), Variable("A"))
        solver.add(Variable("A"), Variable("Z"))
        assert facts_snapshot(solver) != before
        solver.rollback()
        assert facts_snapshot(solver) == before

    def test_nested_marks(self):
        solver = Solver()
        solver.add(constant("c"), Variable("X"))
        first = facts_snapshot(solver)
        solver.mark()
        solver.add(Variable("X"), Variable("Y"))
        second = facts_snapshot(solver)
        solver.mark()
        solver.add(Variable("Y"), Variable("Z"))
        solver.rollback()
        assert facts_snapshot(solver) == second
        solver.rollback()
        assert facts_snapshot(solver) == first

    def test_rollback_removes_inconsistencies(self):
        solver = Solver()
        solver.add(constant("c"), Variable("X"))
        solver.mark()
        solver.add(Variable("X"), constant("d"))
        assert not solver.is_consistent
        solver.rollback()
        assert solver.is_consistent

    def test_rollback_without_mark_raises(self):
        with pytest.raises(RuntimeError):
            Solver().rollback()

    def test_rederived_facts_survive(self):
        # A fact already present before the mark must not be removed
        # even if it is re-derivable from retracted constraints.
        solver = Solver()
        c = constant("c")
        x, y = Variable("X"), Variable("Y")
        solver.add(c, x)
        solver.add(x, y)
        solver.mark()
        solver.add(c, y)  # duplicate of a derived fact
        solver.rollback()
        assert solver.has_lower(y, c, solver.algebra.identity)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_mark_rollback_identity_on_random_systems(self, seed):
        import random

        machine = one_bit_machine()
        algebra = MonoidAlgebra(machine)
        solver = Solver(algebra)
        rng = random.Random(seed)
        variables = [Variable(f"v{i}") for i in range(6)]
        solver.add(constant("c"), variables[0])
        for _ in range(6):
            a, b = rng.randrange(6), rng.randrange(6)
            word = [rng.choice("gk")] if rng.random() < 0.5 else []
            solver.add(variables[a], variables[b], algebra.word(word))
        before = facts_snapshot(solver)
        solver.mark()
        for _ in range(6):
            a, b = rng.randrange(6), rng.randrange(6)
            solver.add(variables[a], variables[b], algebra.word("g"))
        solver.rollback()
        assert facts_snapshot(solver) == before


class TestMachineFingerprint:
    def test_stable_across_rebuilds(self):
        from repro.core.persist import machine_fingerprint

        assert machine_fingerprint(privilege_machine()) == machine_fingerprint(
            privilege_machine()
        )

    def test_distinguishes_machines(self):
        from repro.core.persist import machine_fingerprint

        fingerprints = {
            machine_fingerprint(m)
            for m in (one_bit_machine(), privilege_machine(), pair_machine(), None)
        }
        assert len(fingerprints) == 4

    def test_embedded_in_dump(self):
        import json

        from repro.core.persist import machine_fingerprint

        solver = build_sample_solver()
        data = json.loads(dump_solver(solver))
        assert data["fingerprint"] == machine_fingerprint(privilege_machine())

    def test_load_verifies_expected_fingerprint(self):
        dump = dump_solver(build_sample_solver())
        # the right machine loads, onto the caller's algebra object
        algebra = MonoidAlgebra(privilege_machine())
        assert load_solver(dump, algebra=algebra).algebra is algebra
        # replaying against a different property machine is refused
        with pytest.raises(ValueError, match="different property machine"):
            load_solver(dump, algebra=MonoidAlgebra(one_bit_machine()))
        # and so is another kind of algebra over the same machine
        with pytest.raises(ValueError, match="'monoid' system"):
            load_solver(dump, algebra=CompiledMonoidAlgebra(privilege_machine()))

    def test_load_detects_swapped_machine(self):
        import json

        from repro.core.persist import dfa_to_dict

        # tamper: replace the embedded machine but keep the old fingerprint
        data = json.loads(dump_solver(build_sample_solver()))
        data["machine"] = dfa_to_dict(privilege_machine().minimize().complement())
        with pytest.raises(ValueError, match="corrupt"):
            load_solver(json.dumps(data))

    def test_unannotated_dump_round_trips_with_fingerprint(self):
        import json

        from repro.core.persist import UNANNOTATED_FINGERPRINT

        solver = Solver()
        solver.add(constant("c"), Variable("X"))
        dump = dump_solver(solver)
        assert json.loads(dump)["fingerprint"] == UNANNOTATED_FINGERPRINT
        algebra = UnannotatedAlgebra()
        assert load_solver(dump, algebra=algebra).algebra is algebra
