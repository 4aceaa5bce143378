"""Cross-core equivalence suite for the flat-array solver.

The load-bearing property: :class:`repro.core.flatcore.FlatSolver` is a
pure performance restructuring — for every constraint set over a
compiled algebra it reaches the *same* canonical solved form as the
object-mode :class:`~repro.core.solver.Solver`, under every feature
combination the two cores share (cycle elimination on/off, budget
interrupt/resume, persistence round-trips, and DeltaSolver patching on
the object side; backtracking is the object core's alone).  The
hypothesis suite asserts that across randomized constraint sets and
both compiled algebra families; the unit tests pin the
difference-propagation invariants
(``compositions_saved``, ``redundant_compositions == 0``), a wide lower
column composed without numpy, and the typed rejections.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotations import (
    CompiledGenKillAlgebra,
    CompiledMonoidAlgebra,
    MonoidAlgebra,
    ProductAlgebra,
)
from repro.core.budget import Budget
from repro.core.errors import SolverInterrupted
from repro.core.flatcore import FlatSolver
from repro.core.persist import dump_solver, load_solver
from repro.core.queries import Reachability
from repro.core.solver import Solver
from repro.core.terms import Constructed, Constructor, Variable, constant
from repro.dfa.gallery import one_bit_machine, privilege_machine


def _privilege_algebra():
    return CompiledMonoidAlgebra(privilege_machine())


def _genkill_algebra():
    return CompiledGenKillAlgebra(4)


def _random_constraints(seed: int, genkill: bool):
    """A randomized constraint set over one of the compiled algebras.

    Heavy on identity edges (to provoke cycles), with constant lowers,
    wraps and unwraps mixed in — the same shape the cycle-elimination
    equivalence suite uses.
    """
    algebra = _genkill_algebra() if genkill else _privilege_algebra()
    rng = random.Random(seed)
    n = rng.randrange(4, 10)
    variables = [Variable(f"v{i}") for i in range(n)]
    ctor = Constructor("w", 1)
    constants = [constant("k0"), constant("k1")]

    def annotation():
        if genkill:
            return algebra.of_effect(
                [rng.randrange(4) for _ in range(rng.randrange(2))],
                [rng.randrange(4) for _ in range(rng.randrange(2))],
            )
        return rng.randrange(algebra.size())

    constraints = []
    for _ in range(rng.randrange(6, 24)):
        roll = rng.random()
        a, b = variables[rng.randrange(n)], variables[rng.randrange(n)]
        if roll < 0.55:
            ann = (
                annotation()
                if rng.random() < 0.3
                else algebra.identity_index
            )
            constraints.append((a, b, ann))
        elif roll < 0.7:
            constraints.append((rng.choice(constants), b, annotation()))
        elif roll < 0.85:
            constraints.append(
                (Constructed(ctor, (a,)), b, algebra.identity_index)
            )
        else:
            constraints.append(
                (ctor.proj(1, a), b, algebra.identity_index)
            )
    return algebra, constraints


def _canonical(solver):
    return set(solver.canonical_facts())


class TestFlatEqualsObject:
    """Flat ≡ object canonical solved forms, across the feature matrix."""

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_matches_object_solver(
        self, seed, genkill, cycle_elim
    ):
        algebra, constraints = _random_constraints(seed, genkill)
        flat = FlatSolver(algebra, cycle_elim=cycle_elim)
        flat.add_many(constraints)
        obj = Solver(algebra, record_reasons=False, cycle_elim=cycle_elim)
        obj.add_many(constraints)
        assert _canonical(flat) == _canonical(obj), seed
        assert flat.fact_count() == obj.fact_count(), seed
        assert len(flat.inconsistencies) == len(obj.inconsistencies), seed
        assert flat.variables() == obj.variables(), seed
        if not genkill:  # gen/kill products have no snapshot encoding
            for solver, core in ((obj, "flat"), (flat, "object")):
                data = json.loads(dump_solver(solver))
                data["core"] = core
                loaded = load_solver(json.dumps(data))
                assert loaded.variables() == obj.variables(), seed

    @pytest.mark.parametrize("bound", [2, 3])
    @pytest.mark.parametrize("genkill", [False, True])
    def test_same_merges_and_compositions_as_object_solver(self, bound, genkill):
        # Both cores walk a variable's identity predecessors in insertion
        # order, so a bounded cycle search gives up (or succeeds) at the
        # same edge in either: they merge the same variables and compose
        # equally often, not just reach the same solved form.  Tiny
        # bounds make the search order decide which cycles are found.
        counters = ("compositions", "vars_merged", "cycles_collapsed")
        for seed in range(200):
            algebra, constraints = _random_constraints(seed, genkill)
            flat = FlatSolver(algebra, cycle_search_bound=bound)
            flat.add_many(constraints)
            obj = Solver(algebra, record_reasons=False, cycle_search_bound=bound)
            obj.add_many(constraints)
            assert [getattr(flat.stats, name) for name in counters] == [
                getattr(obj.stats, name) for name in counters
            ], seed

    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_interrupt_resume_reaches_same_fixpoint(self, seed, genkill):
        algebra, constraints = _random_constraints(seed, genkill)
        flat = FlatSolver(
            algebra, budget=Budget(max_steps=5, check_interval=1)
        )
        try:
            flat.add_many(constraints)
        except SolverInterrupted:
            pass
        while flat.pending_count():
            flat.budget = Budget(max_steps=5, check_interval=1)
            try:
                flat.resume()
            except SolverInterrupted:
                continue
        obj = Solver(algebra, record_reasons=False)
        obj.add_many(constraints)
        assert _canonical(flat) == _canonical(obj), seed

    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_patch_after_solve_matches_cold_flat(self, seed, genkill):
        """Object DeltaSolver patching lands on the cold flat form.

        The flat core does not support retraction (no provenance); the
        contract is that a flat *cold solve of the edited set* equals
        the object core's patched solved form.
        """
        from repro.incremental import DeltaSolver, UnsupportedConstraintError

        algebra, constraints = _random_constraints(seed, genkill)
        # DeltaSolver patches edges and constant lowers; keep the given
        # set to that fragment.
        given = [
            (lhs, rhs, ann, None)
            for lhs, rhs, ann in constraints
            if isinstance(lhs, Variable)
            or (isinstance(lhs, Constructed) and lhs.is_constant)
        ]
        if not given:
            return
        obj = Solver(algebra, record_reasons=True)
        obj.add_many([g[:3] for g in given])
        delta = DeltaSolver(obj, given)
        retract = given[seed % len(given)]
        _, extra = _random_constraints(seed + 2, genkill)
        adds = [
            (lhs, rhs, ann, None)
            for lhs, rhs, ann in extra
            if isinstance(lhs, Variable)
            or (isinstance(lhs, Constructed) and lhs.is_constant)
        ]
        try:
            delta.patch(
                adds=adds, retracts=[(retract[0], retract[1], retract[2])]
            )
        except UnsupportedConstraintError:
            return
        final = [g[:3] for g in given if g is not retract]
        final.extend(a[:3] for a in adds)
        flat = FlatSolver(algebra)
        flat.add_many(final)
        assert _canonical(flat) == _canonical(obj), seed

    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_reachability_matches_object_solver(self, seed, genkill):
        algebra, constraints = _random_constraints(seed, genkill)
        flat = FlatSolver(algebra)
        flat.add_many(constraints)
        obj = Solver(algebra, record_reasons=False)
        obj.add_many(constraints)
        for through in (True, False):
            flat_reach = Reachability(flat, through_constructors=through)
            obj_reach = Reachability(obj, through_constructors=through)
            variables = flat.variables() | obj.variables()
            for var in variables:
                assert {
                    (c, a) for c, a, _o in flat_reach.facts(var)
                } == {(c, a) for c, a, _o in obj_reach.facts(var)}, seed


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_two_runs_identical_facts_and_stats(self, seed, genkill):
        runs = []
        for _ in range(2):
            algebra, constraints = _random_constraints(seed, genkill)
            flat = FlatSolver(algebra)
            flat.add_many(constraints)
            runs.append(
                (list(flat.canonical_facts()), flat.stats.as_dict())
            )
        assert runs[0][0] == runs[1][0], seed  # ordered, not just setwise
        assert runs[0][1] == runs[1][1], seed


class TestDifferencePropagation:
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_no_redundant_compositions_at_fixpoint(self, seed, genkill):
        algebra, constraints = _random_constraints(seed, genkill)
        flat = FlatSolver(algebra, track_redundant=True)
        flat.add_many(constraints)
        assert flat.stats.redundant_compositions == 0, seed
        obj = Solver(algebra, record_reasons=False, track_redundant=True)
        obj.add_many(constraints)
        assert obj.stats.redundant_compositions == 0, seed

    def test_compositions_saved_counts_skipped_window(self):
        # One edge drained twice: the second drain must skip the lowers
        # the first drain already pushed across it.
        algebra = _privilege_algebra()
        solver = Solver(algebra, record_reasons=False)
        x, y, z = Variable("X"), Variable("Y"), Variable("Z")
        solver.add(constant("k0"), x)
        solver.add(x, y)  # k0 crosses; lower column of X drained
        solver.add(constant("k1"), x)  # only k1 should cross now
        assert solver.stats.redundant_compositions == 0
        solver2 = Solver(algebra, record_reasons=False)
        solver2.add(constant("k0"), x)
        solver2.add(constant("k1"), x)
        solver2.add(x, y)
        solver2.add(x, z)
        # Same closure either way.
        assert set(solver.canonical_facts()) <= set(solver2.canonical_facts())

    def test_stats_expose_new_counters(self):
        payload = FlatSolver(_privilege_algebra()).stats.as_dict()
        assert "compositions_saved" in payload
        assert "redundant_compositions" in payload


def _column_workload(algebra):
    """84 constant lowers on one variable behind one non-identity edge,
    a wider lower column than any other test here composes."""
    rng = random.Random(3)
    x, y = Variable("X"), Variable("Y")
    batch = []
    for i in range(84):
        ann = algebra.of_effect(
            [rng.randrange(4) for _ in range(rng.randrange(3))],
            [rng.randrange(4) for _ in range(rng.randrange(3))],
        )
        batch.append((constant(f"k{i}"), x, ann))
    return batch, [(x, y, algebra.of_effect([0], [1]))]


_WIDE_COLUMN_PROBE = """
import sys
from repro.core.flatcore import FlatSolver
from repro.core.solver import Solver
from tests.test_flatcore import _column_workload, _genkill_algebra

algebra = _genkill_algebra()
lowers, edge = _column_workload(algebra)
forms = []
for solver in (FlatSolver(algebra), Solver(algebra, record_reasons=False)):
    solver.add_many(lowers)
    solver.add_many(edge)
    forms.append(set(solver.canonical_facts()))
print(forms[0] == forms[1], "numpy" in sys.modules)
"""


class TestLeanImports:
    """Solving and starting the CLI load only what they use."""

    def _fresh_interpreter(self, probe: str) -> str:
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = pathlib.Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=pathlib.Path(__file__).resolve().parent.parent,
            env=env, capture_output=True, text=True, check=True,
        )
        return done.stdout.strip()

    def test_wide_column_composes_without_numpy(self):
        # The flat core composes every lower column, however wide, in
        # its one scalar loop: the solved form is the object core's and
        # numpy stays unloaded even where it is installed.
        assert self._fresh_interpreter(_WIDE_COLUMN_PROBE) == "True False"

    def test_cli_import_leaves_numpy_unloaded(self):
        # A fresh interpreter that loads the CLI (and with it every
        # solver core) has not paid for numpy, nor for the process-pool
        # machinery, which only ``serve --process-pool`` needs.
        heavy = ("numpy", "multiprocessing", "concurrent.futures.process")
        probe = (
            "import sys, repro.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        assert self._fresh_interpreter(probe) == "[]"


class TestComposeShortCircuits:
    """Satellite: dedupe checks run before compositions are evaluated."""

    def test_product_algebra_memoizes_then(self):
        bit = MonoidAlgebra(one_bit_machine())
        product = ProductAlgebra([bit, bit])
        a = (bit.symbol("g"), bit.identity)
        b = (bit.identity, bit.symbol("k"))
        first = product.then(a, b)
        assert product.then(a, b) == first
        assert product.compose_calls == 2
        assert product.compose_evals == 1  # second call hit the memo

    def test_forward_solver_skips_repeated_compositions(self):
        from repro.synth import load_forward
        from repro.synth.workloads import AnnotatedGraphWorkload

        machine = privilege_machine()
        word = (sorted(machine.alphabet)[0],)
        # A fan: many edges carrying the same word from one node, so
        # the same (state, word) pair recurs across (fact, edge) pairs.
        edges = [(0, i, word) for i in range(1, 7)]
        edges += [(i, 7, word) for i in range(1, 7)]
        fan = AnnotatedGraphWorkload(n_vars=8, edges=edges, sources=[0], sinks=[7])
        solver = load_forward(machine, fan)
        solver.solve("src")
        assert solver.compose_calls > solver.compose_evals
        assert solver.compose_evals >= 1

    def test_demand_solver_skips_repeated_compositions(self):
        from repro.core.demand import DemandForwardSolver

        machine = privilege_machine()
        solver = DemandForwardSolver(machine)
        word = (sorted(machine.alphabet)[0],)
        vs = [Variable(f"d{i}") for i in range(6)]
        snk = Variable("snk")
        src_var = Variable("src")
        for v in vs:
            solver.add(src_var, v, word)
            solver.add(v, snk, word)
        solver.add_source("b", src_var)
        solver.solve("b")
        assert solver.compose_calls > solver.compose_evals


class TestFlatPersistence:
    def test_fixpoint_round_trip(self):
        algebra, constraints = _random_constraints(17, genkill=False)
        flat = FlatSolver(algebra)
        flat.add_many(constraints)
        loaded = load_solver(dump_solver(flat))
        assert isinstance(loaded, FlatSolver)
        assert _canonical(loaded) == _canonical(flat)
        assert loaded.fact_count() == flat.fact_count()
        assert loaded.variables() >= flat.variables()

    def test_checkpoint_round_trip_resumes(self):
        algebra, constraints = _random_constraints(23, genkill=False)
        flat = FlatSolver(
            algebra, budget=Budget(max_steps=4, check_interval=1)
        )
        try:
            flat.add_many(constraints)
        except SolverInterrupted:
            pass
        if not flat.pending_count():
            pytest.skip("workload solved inside the budget")
        loaded = load_solver(dump_solver(flat))
        assert isinstance(loaded, FlatSolver)
        assert loaded.pending_count() > 0
        loaded.budget = None
        loaded.resume()
        full = FlatSolver(algebra)
        full.add_many(constraints)
        assert _canonical(loaded) == _canonical(full)

    def test_adds_after_load_resume_online_solving(self):
        algebra, constraints = _random_constraints(29, genkill=False)
        _, more = _random_constraints(31, genkill=False)
        flat = FlatSolver(algebra)
        flat.add_many(constraints)
        loaded = load_solver(dump_solver(flat))
        loaded.add_many(more)
        full = FlatSolver(algebra)
        full.add_many(list(constraints) + list(more))
        assert _canonical(loaded) == _canonical(full)

    def test_flat_dump_loads_into_object_core_and_back(self):
        algebra, constraints = _random_constraints(37, genkill=False)
        flat = FlatSolver(algebra)
        flat.add_many(constraints)
        data = json.loads(dump_solver(flat))
        assert data["core"] == "flat"
        data["core"] = "object"
        obj = load_solver(json.dumps(data))
        assert isinstance(obj, Solver)
        assert _canonical(obj) == _canonical(flat)
        back = json.loads(dump_solver(obj))
        back["core"] = "flat"
        again = load_solver(json.dumps(back))
        assert isinstance(again, FlatSolver)
        assert _canonical(again) == _canonical(flat)


class TestTypedRejections:
    def test_record_reasons_rejected(self):
        with pytest.raises(TypeError, match="provenance"):
            FlatSolver(_privilege_algebra(), record_reasons=True)

    def test_object_algebra_rejected(self):
        with pytest.raises(TypeError, match="compiled"):
            FlatSolver(MonoidAlgebra(privilege_machine()))

    def test_reason_is_always_none(self):
        algebra = _privilege_algebra()
        flat = FlatSolver(algebra)
        x = Variable("X")
        flat.add(constant("k0"), x)
        fact = next(iter(flat.canonical_facts()))
        assert flat.reason(fact) is None
