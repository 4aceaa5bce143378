"""Tests for online cycle elimination (repro.core.cycles).

The collapse is only sound because identity cycles give every member
the same least solution (id ∘ id = id), so the central property tested
here is *equivalence*: with elimination on and off, solvers must agree
on the canonical (identity-SCC-quotient) solved form and on every
verdict — across random systems, random programs, object and compiled
algebras, mark/rollback, budget interruption, persistence, and the
demand solvers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import build_cfg
from repro.core.annotations import CompiledMonoidAlgebra, MonoidAlgebra
from repro.core.budget import Budget
from repro.core.cycles import UnionFind, find_identity_cycle, strong_components
from repro.core.demand import DemandBackwardSolver, DemandForwardSolver
from repro.core.errors import SolverBudgetExceeded
from repro.core.persist import dump_solver, load_solver
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable, constant
from repro.dfa.gallery import one_bit_machine, privilege_machine
from repro.modelcheck import AnnotatedChecker, simple_privilege_property
from repro.synth import cycle_chain, solve_bidirectional
from tests.test_cross_validation import random_program


# ---------------------------------------------------------------------------
# union-find and the bounded detector
# ---------------------------------------------------------------------------


class TestUnionFind:
    def test_find_before_any_union_is_identity(self):
        uf = UnionFind()
        assert uf.find("x") == "x"

    def test_union_redirects_and_undo_restores(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert uf.find("b") == "a"
        assert uf.find("a") == "a"
        uf.undo_union("b")
        assert uf.find("b") == "b"

    def test_chains_resolve_transitively(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("a", "c")
        uf.union("d", "a")  # a itself loses later
        assert uf.find("b") == "d"
        assert uf.find("c") == "d"

    def test_no_compression_leaves_chain_undoable(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("d", "a")
        assert uf.find("b", compress=False) == "d"
        assert uf.parent["b"] == "a"  # chain intact
        uf.undo_union("a")
        assert uf.find("b", compress=False) == "a"

    def test_find_calls_counted(self):
        uf = UnionFind()
        uf.union("a", "b")
        before = uf.find_calls
        uf.find("b")
        assert uf.find_calls == before + 1


class TestFindIdentityCycle:
    def _pred(self, edges):
        # Buckets are iterables of (predecessor, annotation) pairs, the
        # shape both the bidirectional and demand solvers keep.
        pred = {}
        for src, dst, ann in edges:
            pred.setdefault(dst, []).append((src, ann))
        return pred

    def test_finds_simple_back_path(self):
        # inserting a->b closes b -> ... -> a
        pred = self._pred([("b", "c", "id"), ("c", "a", "id")])
        cycle = find_identity_cycle(
            pred, lambda v: v, lambda a: a == "id", "a", "b", 64
        )
        assert cycle is not None
        assert set(cycle) == {"a", "b", "c"}

    def test_ignores_non_identity_edges(self):
        pred = self._pred([("b", "a", "sym")])
        assert (
            find_identity_cycle(
                pred, lambda v: v, lambda a: a == "id", "a", "b", 64
            )
            is None
        )

    def test_respects_bound(self):
        chain = [(f"n{i}", f"n{i + 1}", "id") for i in range(100)]
        pred = self._pred(chain)
        assert (
            find_identity_cycle(
                pred, lambda v: v, lambda a: a == "id", "n100", "n0", 10
            )
            is None
        )


class TestStrongComponents:
    """The offline quotient pass both cores run over identity edges."""

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_mutual_reachability(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 12)
        succ = [
            [rng.randrange(n) for _ in range(rng.randrange(3))] for _ in range(n)
        ]
        reach = [{i} for i in range(n)]
        for _ in range(n):
            for i in range(n):
                for j in succ[i]:
                    reach[i] |= reach[j]
        expected = {
            frozenset(j for j in range(n) if i in reach[j] and j in reach[i])
            for i in range(n)
        }
        edges = [(i, j) for i in range(n) for j in succ[i]]
        found = [frozenset(c) for c in strong_components(edges)]
        assert len(found) == len(set(found))
        assert set(found) == {c for c in expected if len(c) > 1}, seed


# ---------------------------------------------------------------------------
# bidirectional solver: collapse behavior
# ---------------------------------------------------------------------------


def _ring_solver(cycle_elim=True):
    algebra = MonoidAlgebra(one_bit_machine())
    solver = Solver(algebra, cycle_elim=cycle_elim)
    a, b, c = Variable("A"), Variable("B"), Variable("C")
    solver.add(constant("k"), a, algebra.word("g"))
    solver.add(a, b)
    solver.add(b, c)
    solver.add(c, a)  # closes the identity ring
    return solver, (a, b, c)


class TestCollapse:
    def test_ring_merges_to_min_name(self):
        solver, (a, b, c) = _ring_solver()
        assert solver.stats.cycles_collapsed == 1
        assert solver.stats.vars_merged == 2
        assert solver.find(b) == a
        assert solver.find(c) == a

    def test_merged_vars_share_facts(self):
        solver, (a, b, c) = _ring_solver()
        for var in (a, b, c):
            assert set(solver.lower_bounds(a)) == set(solver.lower_bounds(var))

    def test_losers_stay_visible(self):
        solver, (a, b, c) = _ring_solver()
        assert {a, b, c} <= solver.variables()

    def test_canonical_form_matches_no_elim(self):
        on, _ = _ring_solver(cycle_elim=True)
        off, _ = _ring_solver(cycle_elim=False)
        assert set(on.canonical_facts()) == set(off.canonical_facts())
        assert off.stats.cycles_collapsed == 0

    def test_annotated_cycle_not_collapsed(self):
        algebra = MonoidAlgebra(one_bit_machine())
        solver = Solver(algebra)
        a, b = Variable("A"), Variable("B")
        solver.add(a, b, algebra.word("g"))
        solver.add(b, a, algebra.word("g"))  # cycle, but not identity
        assert solver.stats.cycles_collapsed == 0
        assert solver.find(b) == b


# ---------------------------------------------------------------------------
# equivalence on random systems (the soundness property)
# ---------------------------------------------------------------------------


def _random_constraints(seed: int):
    machine = privilege_machine()
    rng = random.Random(seed)
    symbols = sorted(machine.alphabet)
    n = rng.randrange(4, 10)
    variables = [Variable(f"v{i}") for i in range(n)]
    ctor = Constructor("w", 1)
    constants = [constant("k0"), constant("k1")]
    constraints = []
    for _ in range(rng.randrange(6, 24)):
        roll = rng.random()
        a, b = variables[rng.randrange(n)], variables[rng.randrange(n)]
        if roll < 0.55:
            # mostly identity edges, to actually provoke cycles
            word = [rng.choice(symbols)] if rng.random() < 0.3 else []
            constraints.append(("edge", a, b, word))
        elif roll < 0.7:
            constraints.append(("lower", rng.choice(constants), b, []))
        elif roll < 0.85:
            constraints.append(("wrap", a, b, []))
        else:
            constraints.append(("unwrap", a, b, []))
    return machine, ctor, constraints


def _load_solver(machine, ctor, constraints, cycle_elim, compiled=False):
    algebra = (
        CompiledMonoidAlgebra(machine) if compiled else MonoidAlgebra(machine)
    )
    solver = Solver(algebra, cycle_elim=cycle_elim)
    for kind, a, b, word in constraints:
        if kind == "edge":
            solver.add(a, b, algebra.word(word))
        elif kind == "lower":
            solver.add(a, b)
        elif kind == "wrap":
            solver.add(ctor(a), b)
        else:
            solver.add(ctor.proj(1, a), b)
    return solver


class TestEquivalence:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_independent_of_elim(self, seed):
        machine, ctor, constraints = _random_constraints(seed)
        on = _load_solver(machine, ctor, constraints, cycle_elim=True)
        off = _load_solver(machine, ctor, constraints, cycle_elim=False)
        assert set(on.canonical_facts()) == set(off.canonical_facts()), seed
        assert len(on.inconsistencies) == len(off.inconsistencies), seed

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_compiled_mode_equivalent_too(self, seed):
        machine, ctor, constraints = _random_constraints(seed)
        on = _load_solver(
            machine, ctor, constraints, cycle_elim=True, compiled=True
        )
        off = _load_solver(
            machine, ctor, constraints, cycle_elim=False, compiled=True
        )
        assert set(on.canonical_facts()) == set(off.canonical_facts()), seed

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_checker_verdict_independent_of_elim(self, seed):
        cfg = build_cfg(random_program(seed))
        prop = simple_privilege_property()
        on = AnnotatedChecker(cfg, prop, cycle_elim=True).check().has_violation
        off = AnnotatedChecker(
            cfg, prop, cycle_elim=False
        ).check().has_violation
        assert on == off, seed

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_object_and_compiled_agree_with_elim_on(self, seed):
        cfg = build_cfg(random_program(seed))
        prop = simple_privilege_property()
        obj = AnnotatedChecker(cfg, prop).check().has_violation
        comp = AnnotatedChecker(
            cfg,
            prop,
            algebra=CompiledMonoidAlgebra(prop.machine),
            record_reasons=False,
        ).check().has_violation
        assert obj == comp, seed


# ---------------------------------------------------------------------------
# mark/rollback across a merge
# ---------------------------------------------------------------------------


class TestRollbackAcrossMerge:
    def _base(self):
        algebra = MonoidAlgebra(one_bit_machine())
        solver = Solver(algebra, cycle_elim=True)
        a, b, c = Variable("A"), Variable("B"), Variable("C")
        solver.add(constant("k"), a, algebra.word("g"))
        solver.add(a, b)
        solver.add(b, c)
        return solver, algebra, (a, b, c)

    def test_rollback_undoes_merge(self):
        solver, algebra, (a, b, c) = self._base()
        before = set(solver.canonical_facts())
        solver.mark()
        solver.add(c, a)  # triggers the collapse
        assert solver.stats.cycles_collapsed == 1
        assert solver.find(c) == a
        solver.rollback()
        assert solver.find(c) == c
        assert set(solver.canonical_facts()) == before

    def test_solver_usable_after_rollback(self):
        solver, algebra, (a, b, c) = self._base()
        solver.mark()
        solver.add(c, a)
        solver.rollback()
        solver.add(c, a)  # re-merge on the same cycle
        fresh, _ = _ring_solver(cycle_elim=True)
        assert set(solver.canonical_facts()) == set(fresh.canonical_facts())

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_random_mark_rollback_restores_canonical_form(self, seed):
        machine, ctor, constraints = _random_constraints(seed)
        rng = random.Random(seed)
        cut = rng.randrange(len(constraints) + 1)
        solver = _load_solver(
            machine, ctor, constraints[:cut], cycle_elim=True
        )
        before = set(solver.canonical_facts())
        merged_before = dict(solver._uf.parent)
        solver.mark()
        for kind, a, b, word in constraints[cut:]:
            if kind == "edge":
                solver.add(a, b, solver.algebra.word(word))
            elif kind == "lower":
                solver.add(a, b)
            elif kind == "wrap":
                solver.add(ctor(a), b)
            else:
                solver.add(ctor.proj(1, a), b)
        solver.rollback()
        assert solver._uf.parent == merged_before, seed
        assert set(solver.canonical_facts()) == before, seed


# ---------------------------------------------------------------------------
# budget interruption and resumption
# ---------------------------------------------------------------------------


class TestBudgetWithElim:
    def _constraints(self):
        machine = privilege_machine()
        workload = cycle_chain(
            machine, n_cycles=4, cycle_size=6, seed=11, n_sources=4
        )
        algebra = MonoidAlgebra(machine)
        variables = [Variable(f"v{i}") for i in range(workload.n_vars)]
        batch = []
        for index in workload.sources:
            batch.append((Constructor(f"src{index}", 0)(), variables[index]))
        for src, dst, word in workload.edges:
            batch.append((variables[src], variables[dst], algebra.word(word)))
        return algebra, batch

    def test_interrupt_and_resume_matches_uninterrupted(self):
        algebra, batch = self._constraints()
        full = Solver(algebra, cycle_elim=True)
        full.add_many(batch)

        governed = Solver(
            algebra,
            cycle_elim=True,
            budget=Budget(max_steps=30, check_interval=1),
        )
        with pytest.raises(SolverBudgetExceeded):
            governed.add_many(batch)
        governed.resume(Budget(max_steps=10**9))
        assert set(governed.canonical_facts()) == set(full.canonical_facts())
        assert governed.fact_count() == full.fact_count()


# ---------------------------------------------------------------------------
# persistence round-trips with merges
# ---------------------------------------------------------------------------


class TestPersistenceWithMerges:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_dump_load_preserves_canonical_form(self, seed):
        machine, ctor, constraints = _random_constraints(seed)
        solver = _load_solver(machine, ctor, constraints, cycle_elim=True)
        loaded = load_solver(dump_solver(solver))
        assert set(loaded.canonical_facts()) == set(solver.canonical_facts())
        assert loaded.fact_count() == solver.fact_count()
        assert loaded.variables() >= solver.variables()

    def test_merged_map_round_trips(self):
        solver, (a, b, c) = _ring_solver()
        loaded = load_solver(dump_solver(solver))
        assert loaded.find(b) == a
        assert loaded.find(c) == a
        assert set(loaded.lower_bounds(c)) == set(solver.lower_bounds(c))


# ---------------------------------------------------------------------------
# demand solvers
# ---------------------------------------------------------------------------


class TestUnidirectionalElim:
    """Pure annotated graphs, mostly identity edges, loaded twice."""

    def _pair(self, solver_class, seed):
        machine = privilege_machine()
        rng = random.Random(seed)
        symbols = sorted(machine.alphabet)
        n = rng.randrange(4, 10)
        solvers = (
            solver_class(machine, cycle_elim=True),
            solver_class(machine, cycle_elim=False),
        )
        for _ in range(rng.randrange(6, 30)):
            a, b = rng.randrange(n), rng.randrange(n)
            word = (rng.choice(symbols),) if rng.random() < 0.4 else ()
            for solver in solvers:
                solver.add(Variable(f"n{a}"), Variable(f"n{b}"), word)
        return solvers, [Variable(f"n{i}") for i in range(n)]

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_forward_states_agree(self, seed):
        (on, off), nodes = self._pair(DemandForwardSolver, seed)
        for solver in (on, off):
            solver.add_source("src", nodes[0])
        sol_on, sol_off = on.solve("src"), off.solve("src")
        for node in nodes:
            assert sol_on.states_of(node) == sol_off.states_of(node), seed

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_backward_classes_agree(self, seed):
        (on, off), nodes = self._pair(DemandBackwardSolver, seed)
        sol_on, sol_off = on.solve_to(nodes[-1]), off.solve_to(nodes[-1])
        for node in nodes:
            assert sol_on.states_of(node) == sol_off.states_of(node), seed


class TestDemandElim:
    @staticmethod
    def _load(solver, ctor, constraints):
        """Load all but the constant sources; return the variables named."""
        variables = set()
        for kind, a, b, word in constraints:
            if kind == "lower":
                continue  # constant sources are seeded separately
            variables.update((a, b))
            if kind == "edge":
                solver.add(a, b, word)
            elif kind == "wrap":
                solver.add(ctor(a), b)
            else:
                solver.add(ctor.proj(1, a), b)
        return variables

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_forward_demand_states_agree(self, seed):
        machine, ctor, constraints = _random_constraints(seed)
        on = DemandForwardSolver(machine, cycle_elim=True)
        off = DemandForwardSolver(machine, cycle_elim=False)
        variables = self._load(on, ctor, constraints)
        self._load(off, ctor, constraints)
        if not variables:
            return
        seed_var = sorted(variables, key=lambda v: v.name)[0]
        on.add_source("c", seed_var)
        off.add_source("c", seed_var)
        sol_on, sol_off = on.solve("c"), off.solve("c")
        for var in variables:
            for matched in (False, True):
                assert sol_on.states_of(var, matched) == sol_off.states_of(
                    var, matched
                ), (seed, var)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_backward_demand_states_agree(self, seed):
        machine, ctor, constraints = _random_constraints(seed)
        on = DemandBackwardSolver(machine, cycle_elim=True)
        off = DemandBackwardSolver(machine, cycle_elim=False)
        variables = self._load(on, ctor, constraints)
        self._load(off, ctor, constraints)
        if not variables:
            return
        target = sorted(variables, key=lambda v: v.name)[-1]
        sol_on, sol_off = on.solve_to(target), off.solve_to(target)
        for var in variables:
            for matched in (False, True):
                assert sol_on.states_of(var, matched) == sol_off.states_of(
                    var, matched
                ), (seed, var)

    def test_backward_demand_resolves_merged_targets(self):
        machine = privilege_machine()
        solver = DemandBackwardSolver(machine)
        a, b, c, d = (Variable(n) for n in "ABCD")
        solver.add(a, b, ["seteuid_zero"])
        solver.add(b, c)
        solver.add(c, b)  # identity ring in the reversed graph too
        solver.add(c, d, ["execl"])
        solution = solver.solve_to(d)
        assert solver.can_reach(solution, a)


# ---------------------------------------------------------------------------
# the synthetic workload itself
# ---------------------------------------------------------------------------


class TestCycleChainWorkload:
    def test_generator_shape(self):
        machine = privilege_machine()
        workload = cycle_chain(machine, n_cycles=3, cycle_size=5, seed=0)
        assert workload.n_vars == 15
        # every ring contributes its cycle edges; two segment links
        identity = [e for e in workload.edges if not e[2]]
        annotated = [e for e in workload.edges if e[2]]
        assert len(annotated) == 2
        assert len(identity) >= 15

    def test_solved_forms_agree_and_rings_collapse(self):
        machine = privilege_machine()
        workload = cycle_chain(
            machine, n_cycles=4, cycle_size=6, seed=5, n_sources=3
        )
        on = solve_bidirectional(machine, workload, cycle_elim=True)
        off = solve_bidirectional(machine, workload, cycle_elim=False)
        assert on.stats.vars_merged > 0
        assert set(on.canonical_facts()) == set(off.canonical_facts())
