"""The §8 specializer: compiled algebras agree with object mode everywhere.

The compiled pipeline (machine → transition monoid → composition table →
int-indexed algebra) is a pure representation change; every test here
pins that claim from a different angle:

* table-vs-object agreement of ``then``/predicates on all element pairs
  for the gallery machines, and on random words (hypothesis);
* identical solved forms and verdicts between compiled and object
  solvers on the Table 1 and Fig 11 workloads (decode-based comparison);
* packed-int gen/kill composition equals the tuple ``ProductAlgebra``;
* provenance opt-out (``record_reasons=False``) changes no facts;
* ``add_many`` batches equal one-at-a-time adds; duplicates surface in
  ``SolverStats.facts_deduped``;
* compiled solved forms persist and warm-start (including online adds
  on top of a loaded snapshot).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import build_cfg
from repro.core import (
    CompiledGenKillAlgebra,
    CompiledMonoidAlgebra,
    MonoidAlgebra,
    ProductAlgebra,
    Solver,
    compile_algebra,
)
from repro.core.persist import dump_solver, load_solver
from repro.core.terms import Constructor, Variable
from repro.dataflow import AnnotatedBitVectorAnalysis
from repro.dataflow.problems import call_tracking_problem
from repro.dfa.automaton import DFA
from repro.dfa.gallery import (
    bit_vector_machine,
    file_state_machine,
    full_privilege_machine,
    one_bit_machine,
    privilege_machine,
)
from repro.flow import FlowAnalysis
from repro.modelcheck import (
    AnnotatedChecker,
    full_privilege_property,
    simple_privilege_property,
)
from repro.synth import PackageSpec, generate_package
from tests.test_cross_validation import random_program

GALLERY = {
    "one_bit": one_bit_machine,
    "two_bit": lambda: bit_vector_machine(2),
    "privilege": privilege_machine,
    "full_privilege": full_privilege_machine,
    "file_state": file_state_machine,
}


# -- algebra-level agreement --------------------------------------------------


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_compiled_then_matches_object_on_all_pairs(name):
    machine = GALLERY[name]()
    compiled = compile_algebra(machine)
    for i, fi in enumerate(compiled.elements):
        for j, fj in enumerate(compiled.elements):
            expected = compiled.encode(fi.then(fj))
            assert compiled.then(i, j) == expected, (name, fi, fj)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_compiled_predicates_match_object(name):
    machine = GALLERY[name]()
    obj = MonoidAlgebra(machine)
    compiled = CompiledMonoidAlgebra(machine)
    assert compiled.decode(compiled.identity) == obj.identity
    for i, fn in enumerate(compiled.elements):
        assert compiled.is_live(i) == obj.is_live(fn)
        assert compiled.is_accepting(i) == obj.is_accepting(fn)
        assert compiled.state_after(i) == fn(machine.start)
        assert compiled.encode(compiled.decode(i)) == i


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_compiled_word_matches_object_word(data):
    name = data.draw(st.sampled_from(sorted(GALLERY)))
    machine = GALLERY[name]()
    symbols = sorted(machine.alphabet, key=repr)
    word = data.draw(st.lists(st.sampled_from(symbols), max_size=12))
    obj = MonoidAlgebra(machine)
    compiled = CompiledMonoidAlgebra(machine)
    assert compiled.decode(compiled.word(word)) == obj.word(word)


# -- gen/kill packing ---------------------------------------------------------


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packed_genkill_matches_product_algebra(data):
    n_bits = data.draw(st.integers(min_value=1, max_value=6))
    product = ProductAlgebra([MonoidAlgebra(one_bit_machine())] * n_bits)
    packed = CompiledGenKillAlgebra(n_bits)
    elements = st.sampled_from(
        [product.components[0].identity]
        + [product.components[0].symbol(s) for s in ("g", "k")]
    )
    first = tuple(data.draw(elements) for _ in range(n_bits))
    second = tuple(data.draw(elements) for _ in range(n_bits))
    f, g = packed.encode(first), packed.encode(second)
    assert packed.decode(f) == first
    assert packed.decode(packed.then(f, g)) == product.then(first, second)
    assert packed.accepting_bits(f) == product.accepting_bits(first)
    assert packed.is_accepting(f) == product.is_accepting(first)
    assert packed.is_live(f) == product.is_live(first)


def test_of_effect_matches_encode():
    packed = CompiledGenKillAlgebra(4)
    bit = packed.bit
    gen, kill, eps = bit.symbol("g"), bit.symbol("k"), bit.identity
    assert packed.of_effect({0, 2}, {3}) == packed.encode((gen, eps, gen, kill))
    assert packed.of_effect((), ()) == packed.identity


def test_product_algebra_any_dead_all_live_semantics():
    """A product annotation is live iff every component is live."""
    # Machine with a dead element: 'a' enters a trap state that cannot
    # reach the accepting start state again.
    trap = DFA(
        n_states=2,
        alphabet=frozenset({"a"}),
        start=0,
        accepting=frozenset({0}),
        delta={(0, "a"): 1, (1, "a"): 1},
    )
    trap_algebra = MonoidAlgebra(trap)
    bit_algebra = MonoidAlgebra(one_bit_machine())
    dead = trap_algebra.symbol("a")
    assert not trap_algebra.is_live(dead)
    product = ProductAlgebra([trap_algebra, bit_algebra])
    live_pair = (trap_algebra.identity, bit_algebra.symbol("g"))
    assert product.is_live(live_pair)  # all live -> live
    assert not product.is_live((dead, bit_algebra.identity))  # any dead -> dead
    assert not product.is_live((dead, bit_algebra.symbol("k")))


# -- solver-level equivalence -------------------------------------------------


def _solved_form(solver):
    """Normalized, representation-independent view of a solved system."""
    algebra = solver.algebra
    decode = (
        algebra.decode
        if isinstance(algebra, CompiledMonoidAlgebra)
        else (lambda ann: ann)
    )
    facts = set()
    for var in solver.variables():
        for src, ann in solver.lower_bounds(var):
            facts.add(("lower", var.name, src, decode(ann)))
        for snk, ann in solver.upper_bounds(var):
            facts.add(("upper", var.name, snk, decode(ann)))
        for dst, ann in solver.edges_from(var):
            facts.add(("edge", var.name, dst.name, decode(ann)))
        for ctor, index, target, ann in solver.projection_sinks(var):
            facts.add(("proj", var.name, ctor, index, target.name, decode(ann)))
    return facts


@pytest.fixture(scope="module")
def table1_cfg():
    source = generate_package(
        PackageSpec("compiled-xval", 2_000, 25, seed=11, violation=True)
    )
    return build_cfg(source)


def test_compiled_checker_matches_object_on_table1_workload(table1_cfg):
    prop = full_privilege_property()
    obj = AnnotatedChecker(table1_cfg, prop)
    comp = AnnotatedChecker(
        table1_cfg, prop, algebra=CompiledMonoidAlgebra(prop.machine)
    )
    obj_result, comp_result = obj.check(), comp.check()
    assert obj_result.has_violation == comp_result.has_violation
    assert obj_result.violation_lines() == comp_result.violation_lines()
    assert obj.solver.fact_count() == comp.solver.fact_count()
    assert _solved_form(obj.solver) == _solved_form(comp.solver)


def test_compiled_flow_matches_object_on_fig11():
    fig11 = """
    pair(y : int) : b = (1@A, y@Y)@P;
    main() : int = (pair^i(2@B)).2@V;
    """
    obj = FlowAnalysis(fig11, compiled=False)
    comp = FlowAnalysis(fig11, compiled=True)
    assert isinstance(comp.system.algebra, CompiledMonoidAlgebra)
    assert obj.flow_pairs() == comp.flow_pairs()
    assert comp.flows("B", "V") and not comp.flows("A", "V")
    assert (
        obj.system.solver.fact_count() == comp.system.solver.fact_count()
    )


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=20, deadline=None)
def test_compiled_checker_agrees_on_random_programs(seed):
    cfg = build_cfg(random_program(seed))
    prop = simple_privilege_property()
    obj = AnnotatedChecker(cfg, prop)
    comp = AnnotatedChecker(
        cfg,
        prop,
        algebra=CompiledMonoidAlgebra(prop.machine),
        record_reasons=False,
    )
    assert obj.check().has_violation == comp.check().has_violation
    assert obj.solver.fact_count() == comp.solver.fact_count()
    assert _solved_form(obj.solver) == _solved_form(comp.solver)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=15, deadline=None)
def test_compiled_dataflow_agrees_on_random_programs(seed):
    cfg = build_cfg(random_program(seed))
    problem = call_tracking_problem(cfg, ["seteuid", "execl", "work"])
    tuples = AnnotatedBitVectorAnalysis(cfg, problem).solution()
    packed = AnnotatedBitVectorAnalysis(
        cfg, problem, algebra=CompiledGenKillAlgebra(problem.n_bits)
    ).solution()
    assert tuples == packed, f"seed {seed}"


# -- provenance opt-out -------------------------------------------------------


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=20, deadline=None)
def test_record_reasons_off_changes_no_facts(seed):
    cfg = build_cfg(random_program(seed))
    prop = simple_privilege_property()
    with_reasons = AnnotatedChecker(cfg, prop, record_reasons=True)
    without = AnnotatedChecker(cfg, prop, record_reasons=False)
    assert (
        with_reasons.check().has_violation == without.check().has_violation
    ), f"seed {seed}"
    assert with_reasons.solver.fact_count() == without.solver.fact_count()
    assert not without.solver._reasons


# -- batching and dedup stats -------------------------------------------------


def test_add_many_equals_sequential_adds():
    machine = privilege_machine()
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    c = Constructor("c", 0)()
    algebra = CompiledMonoidAlgebra(machine)
    constraints = [
        (c, x),
        (x, y, algebra.symbol("seteuid_zero")),
        (y, z, algebra.symbol("execl")),
    ]
    batched = Solver(CompiledMonoidAlgebra(machine))
    batched.add_many(constraints)
    sequential = Solver(CompiledMonoidAlgebra(machine))
    for lhs, rhs, *rest in constraints:
        sequential.add(lhs, rhs, rest[0] if rest else None)
    assert batched.fact_count() == sequential.fact_count()
    assert _solved_form(batched) == _solved_form(sequential)


def test_facts_deduped_counts_duplicates():
    solver = Solver(CompiledMonoidAlgebra(one_bit_machine()))
    x, y = Variable("X"), Variable("Y")
    c = Constructor("c", 0)()
    solver.add(c, x)
    solver.add(x, y)
    assert solver.stats.facts_deduped == 0
    solver.add(x, y)  # exact duplicate constraint
    assert solver.stats.facts_deduped > 0
    assert "facts_deduped" in solver.stats.as_dict()


# -- persistence --------------------------------------------------------------


def _small_compiled_solver() -> Solver:
    algebra = CompiledMonoidAlgebra(one_bit_machine())
    solver = Solver(algebra)
    x, y = Variable("X"), Variable("Y")
    solver.add(Constructor("c", 0)(), x)
    solver.add(x, y, algebra.symbol("g"))
    return solver


def test_compiled_solver_roundtrips_through_persist():
    solver = _small_compiled_solver()
    loaded = load_solver(dump_solver(solver))
    assert isinstance(loaded.algebra, CompiledMonoidAlgebra)
    assert loaded.fact_count() == solver.fact_count()
    assert _solved_form(loaded) == _solved_form(solver)


def test_loaded_solver_resumes_online_solving():
    """Seq lists must be rebuilt on load or new adds miss old facts."""
    solver = _small_compiled_solver()
    loaded = load_solver(dump_solver(solver))
    z = Variable("Z")
    loaded.add(Variable("Y"), z, loaded.algebra.symbol("k"))
    # The loaded lower bound on X must propagate through the old Y edge
    # and the new Z edge: c reaches Z annotated g·k.
    expected = loaded.algebra.word(["g", "k"])
    assert any(
        ann == expected and src.constructor.name == "c"
        for src, ann in loaded.lower_bounds(z)
    )
