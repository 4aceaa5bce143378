"""Tests for differential re-solving (repro.incremental).

The load-bearing property throughout: after ``DeltaSolver.apply`` the
solver holds *exactly* the canonical solved form a cold solve of the
edited constraint set would produce — same facts modulo the full
identity-cycle quotient, same collapse classes, same query answers.
The hypothesis suite asserts it across algebras, cycle-elimination
settings, and randomized edit streams; the unit tests pin down the
individual mechanisms (ledger, demotion, provenance hygiene) and the
typed rejections.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotations import CompiledMonoidAlgebra, MonoidAlgebra
from repro.core.budget import Budget
from repro.core.errors import SolverBudgetExceeded
from repro.core.persist import dump_solver, load_solver
from repro.core.solver import Solver
from repro.core.terms import Variable, constant
from repro.incremental import (
    DeltaSolver,
    Patch,
    PatchStateError,
    ProvenanceError,
    StableCheck,
    UnknownConstraintError,
    UnsupportedConstraintError,
    diff_programs,
    stable_encode,
)
from repro.cfg import build_cfg
from repro.modelcheck.properties import (
    file_state_property,
    simple_privilege_property,
)
from repro.synth import PackageSpec, edit_stream

PROP = simple_privilege_property()


def canonical(solver):
    return set(solver.canonical_facts())


def cold_check(source, compiled=True, cycle_elim=True):
    algebra = None if compiled else MonoidAlgebra(PROP.machine)
    return StableCheck(source, PROP, algebra=algebra, cycle_elim=cycle_elim)


def stored_facts(solver):
    for var, bucket in solver._lower.items():
        for term, ann in bucket:
            yield ("lower", var, term, ann)
    for var, bucket in solver._upper.items():
        for term, ann in bucket:
            yield ("upper", var, term, ann)
    for var, bucket in solver._succ.items():
        for dst, ann in bucket:
            yield ("edge", var, dst, ann)
    for var, bucket in solver._proj.items():
        for key in bucket:
            yield ("proj", var, *key)


def audit_reasons(solver):
    """Every recorded reason must describe a fact that is still stored,
    keyed at a current union-find root (no loser-keyed strays).

    Like fact storage itself, an edge reason's *dst* slot may keep a
    merged-away spelling — only the primary (bucket-owner) slot is kept
    canonical — so the store comparison goes through
    ``_canonical_fact``.
    """
    canon = solver._canonical_fact
    find = solver.find
    stored = {canon(fact) for fact in stored_facts(solver)}
    for key in solver._reasons:
        assert find(key[1]) == key[1], f"loser-keyed reason survives: {key!r}"
        assert canon(key) in stored, f"reason for absent fact: {key!r}"


SMALL = PackageSpec("inc-small", 260, 6, seed=2)
MEDIUM = PackageSpec("inc-medium", 900, 12, seed=8)


class TestPatchEquivalence:
    """Patched solved form == cold solved form (unit cases)."""

    def test_single_edit_matches_cold(self):
        steps = list(edit_stream(MEDIUM, 1))
        live = cold_check(steps[0].source)
        outcome = live.apply_source(steps[1].source)
        cold = cold_check(steps[1].source)
        assert canonical(live.solver) == canonical(cold.solver)
        assert outcome.stats.added_constraints == len(outcome.patch.adds)
        assert live.has_violation() == cold.has_violation()

    def test_edit_then_revert_roundtrip(self):
        steps = list(edit_stream(MEDIUM, 1))
        live = cold_check(steps[0].source)
        before = canonical(live.solver)
        live.apply_source(steps[1].source)
        live.apply_source(steps[0].source)
        assert canonical(live.solver) == before

    def test_add_only_patch(self):
        solver = Solver(record_reasons=True)
        c = constant("c")
        x, y = Variable("X"), Variable("Y")
        solver.add(c, x)
        delta = DeltaSolver(solver, [(c, x, None, None)])
        delta.patch(adds=[(x, y, None, None)])
        cold = Solver()
        cold.add(c, x)
        cold.add(x, y)
        assert canonical(solver) == canonical(cold)

    def test_retract_only_patch(self):
        solver = Solver(record_reasons=True)
        c = constant("c")
        x, y = Variable("X"), Variable("Y")
        given = [(c, x, None, None), (x, y, None, None)]
        solver.add_many(given)
        identity = solver.algebra.identity
        delta = DeltaSolver(solver, given)
        delta.patch(retracts=[(x, y, identity)])
        cold = Solver()
        cold.add(c, x)
        assert canonical(solver) == canonical(cold)

    def test_empty_patch_is_noop(self):
        steps = list(edit_stream(SMALL, 0))
        live = cold_check(steps[0].source)
        before = canonical(live.solver)
        stats = live.delta.apply(Patch((), ()))
        assert canonical(live.solver) == before
        assert stats.facts_retracted == 0
        assert stats.demotions == 0

    def test_duplicate_given_retract_keeps_fact(self):
        # The ledger is a multiset: retracting one of two identical
        # givens must keep the fact derivable.
        solver = Solver(record_reasons=True)
        c = constant("c")
        x = Variable("X")
        given = [(c, x, None, None), (c, x, None, None)]
        solver.add_many(given)
        identity = solver.algebra.identity
        delta = DeltaSolver(solver, given)
        delta.patch(retracts=[(c, x, identity)])
        assert solver.has_lower(x, c, identity)
        delta.patch(retracts=[(c, x, identity)])
        assert not list(solver.lower_bounds(x))

    def test_patch_stats_counters_flow_to_solver_stats(self):
        steps = list(edit_stream(MEDIUM, 1))
        live = cold_check(steps[0].source)
        outcome = live.apply_source(steps[1].source)
        stats = outcome.stats
        assert stats.retracted_constraints > 0
        assert stats.facts_retracted > 0
        assert live.solver.stats.facts_retracted == stats.facts_retracted
        assert live.solver.stats.facts_rederived == stats.facts_rederived
        assert live.solver.stats.cone_size >= stats.facts_retracted
        payload = stats.as_dict()
        assert set(payload) == {
            "added_constraints",
            "retracted_constraints",
            "facts_retracted",
            "facts_rederived",
            "demotions",
        }


class TestCycleDemotion:
    """Retractions that break identity cycles dissolve merged classes."""

    def test_retract_cycle_edge_demotes(self):
        solver = Solver(record_reasons=True)
        c = constant("c")
        x, y, z = Variable("X"), Variable("Y"), Variable("Z")
        given = [
            (c, x, None, None),
            (x, y, None, None),
            (y, x, None, None),
            (y, z, None, None),
        ]
        solver.add_many(given)
        identity = solver.algebra.identity
        assert solver.find(x) == solver.find(y)  # merged
        delta = DeltaSolver(solver, given)
        stats = delta.patch(retracts=[(y, x, identity)])
        assert stats.demotions == 1
        assert solver.find(x) != solver.find(y)
        cold = Solver()
        cold.add_many([g for g in given if g[:2] != (y, x)])
        assert canonical(solver) == canonical(cold)

    def test_remerge_when_cycle_restored(self):
        solver = Solver(record_reasons=True)
        c = constant("c")
        x, y = Variable("X"), Variable("Y")
        given = [(c, x, None, None), (x, y, None, None), (y, x, None, None)]
        solver.add_many(given)
        identity = solver.algebra.identity
        delta = DeltaSolver(solver, given)
        delta.patch(retracts=[(y, x, identity)])
        delta.patch(adds=[(y, x, None, None)])
        assert solver.find(x) == solver.find(y)
        cold = Solver()
        cold.add_many(given)
        assert canonical(solver) == canonical(cold)

    def test_demotion_deletes_every_stale_spelling(self):
        # Regression: a merged loop class can store *several* spellings
        # of one canonical edge (same src, dsts all in the class).  The
        # demotion cone must delete them all — resolving each to the
        # first variant hit used to collapse them into one key, so the
        # survivor resurrected as a distinct stale fact once the class
        # split.  Found by hypothesis at exactly this seed.
        spec = PackageSpec("inc-prop", 220, 5, seed=8)
        steps = list(edit_stream(spec, 2))
        live = StableCheck(
            steps[0].source, PROP, algebra=MonoidAlgebra(PROP.machine)
        )
        for step in steps[1:]:
            live.apply_source(step.source)
        cold = cold_check(steps[-1].source, compiled=False, cycle_elim=True)
        assert canonical(live.solver) == canonical(cold.solver)


class TestRejections:
    def test_no_reasons_rejected(self):
        solver = Solver(record_reasons=False)
        c = constant("c")
        x = Variable("X")
        solver.add(c, x)
        with pytest.raises(ProvenanceError):
            DeltaSolver(solver, [(c, x, None, None)])

    def test_warm_loaded_snapshot_rejected(self):
        solver = Solver(record_reasons=True)
        c = constant("c")
        x = Variable("X")
        solver.add(c, x)
        loaded = load_solver(dump_solver(solver))
        with pytest.raises(ProvenanceError):
            DeltaSolver(loaded, [(c, x, None, None)])

    def test_open_journal_rejected(self):
        solver = Solver(record_reasons=True)
        c = constant("c")
        x = Variable("X")
        given = [(c, x, None, None)]
        solver.add_many(given)
        delta = DeltaSolver(solver, given)
        solver.mark()
        with pytest.raises(PatchStateError):
            delta.patch(adds=[(x, Variable("Y"), None, None)])
        solver.rollback()
        delta.patch(adds=[(x, Variable("Y"), None, None)])  # fine again

    def test_unknown_retraction_rejected(self):
        solver = Solver(record_reasons=True)
        c = constant("c")
        x = Variable("X")
        given = [(c, x, None, None)]
        solver.add_many(given)
        delta = DeltaSolver(solver, given)
        identity = solver.algebra.identity
        with pytest.raises(UnknownConstraintError):
            delta.patch(retracts=[(x, Variable("Y"), identity)])

    def test_parametric_property_rejected_by_encoder(self):
        prop = file_state_property()
        if not prop.parametric_symbols:
            pytest.skip("file-state property is not parametric here")
        from repro.core.parametric import ParametricAlgebra

        algebra = ParametricAlgebra(prop.machine, prop.parametric_symbols)
        cfg = build_cfg("int main() { int fd = open(); close(fd); return 0; }")
        with pytest.raises(UnsupportedConstraintError):
            stable_encode(cfg, prop, algebra)


class TestProvenanceHygiene:
    """mark()/rollback() and cycle merges must not strand reasons."""

    def test_reasons_match_store_after_rollback(self):
        steps = list(edit_stream(SMALL, 0))
        live = cold_check(steps[0].source)
        solver = live.solver
        snapshot = dict(solver._reasons)
        solver.mark()
        solver.add(constant("c"), Variable("S@fn_1#1"))
        solver.rollback()
        audit_reasons(solver)
        assert solver._reasons == snapshot

    def test_reasons_restored_across_cycle_merge_rollback(self):
        solver = Solver(record_reasons=True)
        c = constant("c")
        x, y = Variable("X"), Variable("Y")
        solver.add(c, x)
        solver.add(x, y)
        snapshot = dict(solver._reasons)
        solver.mark()
        solver.add(y, x)  # merges {X, Y} inside the epoch
        assert solver.find(x) == solver.find(y)
        solver.rollback()
        assert solver.find(x) != solver.find(y)
        assert solver._reasons == snapshot
        audit_reasons(solver)

    def test_no_stale_reasons_after_merge(self):
        solver = Solver(record_reasons=True)
        c = constant("c")
        x, y, z = Variable("X"), Variable("Y"), Variable("Z")
        solver.add(c, x)
        solver.add(x, y)
        solver.add(y, z)
        solver.add(z, x)  # three-way merge
        assert solver.find(x) == solver.find(z)
        audit_reasons(solver)

    def test_audit_holds_across_patches(self):
        steps = list(edit_stream(MEDIUM, 3))
        live = cold_check(steps[0].source)
        for step in steps[1:]:
            live.apply_source(step.source)
            audit_reasons(live.solver)


# -- hypothesis: patch == cold across the configuration space ----------------

edit_specs = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # package seed
    st.integers(min_value=1, max_value=3),  # number of edits
    st.booleans(),  # compiled algebra
    st.booleans(),  # cycle elimination
)


@settings(max_examples=12, deadline=None)
@given(edit_specs)
def test_patch_reaches_cold_solved_form(params):
    seed, n_edits, compiled, cycle_elim = params
    spec = PackageSpec("inc-prop", 220, 5, seed=seed)
    steps = list(edit_stream(spec, n_edits))
    live = cold_check(steps[0].source, compiled=compiled, cycle_elim=cycle_elim)
    for step in steps[1:]:
        live.apply_source(step.source)
    cold = cold_check(
        steps[-1].source, compiled=compiled, cycle_elim=cycle_elim
    )
    assert canonical(live.solver) == canonical(cold.solver)
    assert live.has_violation() == cold.has_violation()


@settings(max_examples=6, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=30, max_value=400),
)
def test_patch_after_resume(seed, max_steps):
    """A budget-interrupted solve, resumed to the fixpoint, patches to
    the same canonical form as an uninterrupted cold solve."""
    spec = PackageSpec("inc-resume", 220, 5, seed=seed)
    steps = list(edit_stream(spec, 1))
    algebra = CompiledMonoidAlgebra(PROP.machine)
    batch, _ = stable_encode(build_cfg(steps[0].source), PROP, algebra)
    solver = Solver(
        algebra, record_reasons=True, budget=Budget(max_steps=max_steps)
    )
    try:
        solver.add_many(batch)
    except SolverBudgetExceeded:
        pass
    solver.budget = None
    solver.resume()
    delta = DeltaSolver(solver, batch)
    patch = diff_programs(steps[0].source, steps[1].source, PROP, algebra)
    delta.apply(patch)
    cold = cold_check(steps[1].source)
    assert canonical(solver) == canonical(cold.solver)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_object_and_compiled_algebras_agree_after_patch(seed):
    spec = PackageSpec("inc-alg", 220, 5, seed=seed)
    steps = list(edit_stream(spec, 1))
    compiled = cold_check(steps[0].source, compiled=True)
    objectal = StableCheck(
        steps[0].source, PROP, algebra=MonoidAlgebra(PROP.machine)
    )
    compiled.apply_source(steps[1].source)
    objectal.apply_source(steps[1].source)
    assert compiled.has_violation() == objectal.has_violation()
    assert compiled.solver.fact_count() == objectal.solver.fact_count()
