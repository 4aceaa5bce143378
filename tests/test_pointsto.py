"""Tests for the Andersen points-to analysis and its naive baseline."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.parser import parse_program
from repro.pointsto import AndersenAnalysis, NaiveAndersen, extract_pointer_ops


def both(source: str):
    program = parse_program(source)
    analysis = AndersenAnalysis(program)
    ops, locations = extract_pointer_ops(program)
    naive = NaiveAndersen(ops, locations)
    return analysis, naive


class TestBasics:
    def test_address_of(self):
        analysis, _ = both("int main() { int x; int *p = &x; }")
        assert analysis.points_to("main::p") == {"main::x"}

    def test_copy(self):
        analysis, _ = both(
            "int main() { int x; int *p = &x; int *q; q = p; }"
        )
        assert analysis.points_to("main::q") == {"main::x"}

    def test_load(self):
        analysis, _ = both(
            """
            int main() {
              int x; int *p = &x; int **pp = &p;
              int *r = *pp;
            }
            """
        )
        assert analysis.points_to("main::r") == {"main::x"}

    def test_store(self):
        analysis, _ = both(
            """
            int main() {
              int x; int y;
              int *p; int **pp = &p;
              *pp = &y;
              int *r = p;
            }
            """
        )
        assert analysis.points_to("main::p") == {"main::y"}
        assert analysis.points_to("main::r") == {"main::y"}

    def test_malloc_per_site(self):
        analysis, _ = both(
            """
            int main() {
              int *a = malloc(4);
              int *b = malloc(4);
            }
            """
        )
        (site_a,) = analysis.points_to("main::a")
        (site_b,) = analysis.points_to("main::b")
        assert site_a != site_b
        assert site_a.startswith("heap@")

    def test_flow_insensitive_join(self):
        analysis, _ = both(
            """
            int main() {
              int x; int y; int *p;
              if (c) { p = &x; } else { p = &y; }
            }
            """
        )
        assert analysis.points_to("main::p") == {"main::x", "main::y"}
        # the same join under a switch, whose cases are lowered too
        analysis, naive = both(
            """
            int main() {
              int x; int *p;
              switch (x) { case 1: p = &x; break; }
              return 0;
            }
            """
        )
        assert analysis.points_to("main::p") == {"main::x"}
        assert naive.points_to("main::p") == {"main::x"}

    def test_for_step_is_lowered(self):
        analysis, naive = both(
            "int main() { int x; int *p; for (;; p = &x) { } }"
        )
        assert analysis.points_to("main::p") == {"main::x"}
        assert naive.points_to("main::p") == {"main::x"}

    def test_may_alias(self):
        analysis, _ = both(
            """
            int main() {
              int x; int y;
              int *p = &x; int *q = &x; int *r = &y;
            }
            """
        )
        assert analysis.may_alias("main::p", "main::q")
        assert not analysis.may_alias("main::p", "main::r")


class TestInterprocedural:
    def test_param_and_return(self):
        analysis, _ = both(
            """
            int *id(int *a) { return a; }
            int main() { int x; int *p = id(&x); }
            """
        )
        assert analysis.points_to("main::p") == {"main::x"}

    def test_callee_writes_through_pointer(self):
        analysis, _ = both(
            """
            void set(int **slot, int *value) { *slot = value; }
            int main() {
              int x; int *p;
              set(&p, &x);
              int *r = p;
            }
            """
        )
        assert analysis.points_to("main::r") == {"main::x"}

    def test_context_insensitive_conflation(self):
        # Classic Andersen smears across call sites — both solvers must
        # agree on the (imprecise) result.
        analysis, naive = both(
            """
            int *id(int *a) { return a; }
            int main() {
              int x; int y;
              int *p = id(&x);
              int *q = id(&y);
            }
            """
        )
        expected = {"main::x", "main::y"}
        assert analysis.points_to("main::p") == expected
        assert naive.points_to("main::p") == expected

    def test_redefined_function_binds_the_first_definition(self):
        # A call to a name defined twice copies its actuals into the
        # first definition's parameters, the one Program.function finds.
        program = parse_program(
            """
            int *f(int *a) { return a; }
            int *f(int *b) { return b; }
            int main() { int x; int *p = f(&x); }
            """
        )
        ops, _locations = extract_pointer_ops(program)
        copied_to = {dst for kind, dst, _src in ops if kind == "copy"}
        assert "f::a" in copied_to
        assert "f::b" not in copied_to
        assert AndersenAnalysis(program).points_to("main::p") == {"main::x"}

    def test_swap_through_double_pointers(self):
        analysis, _ = both(
            """
            void swap(int *a, int *b) {
              int *t;
              t = *a;
              *a = *b;
              *b = t;
            }
            int main() {
              int x; int y;
              int *p = &x; int *q = &y;
              swap(&p, &q);
            }
            """
        )
        assert analysis.points_to("main::p") == {"main::x", "main::y"}


def random_pointer_program(seed: int) -> str:
    """Random mini-C over &, *, copies, stores, loads, calls, malloc."""
    rng = random.Random(seed)
    base = ["x", "y", "z"]
    pointers = ["p", "q", "r"]
    double = ["pp", "qq"]
    lines = ["void callee(int *a, int **slot) {"]
    for _ in range(rng.randrange(0, 3)):
        lines.append(f"  *slot = a;")
    lines.append("}")
    lines.append("int *give(int *a) { return a; }")
    lines.append("int main() {")
    for name in base:
        lines.append(f"  int {name};")
    for name in pointers:
        lines.append(f"  int *{name};")
    for name in double:
        lines.append(f"  int **{name};")
    statements = []
    for _ in range(rng.randrange(4, 16)):
        roll = rng.random()
        if roll < 0.25:
            statements.append(
                f"{rng.choice(pointers)} = &{rng.choice(base)};"
            )
        elif roll < 0.4:
            statements.append(
                f"{rng.choice(pointers)} = {rng.choice(pointers)};"
            )
        elif roll < 0.5:
            statements.append(
                f"{rng.choice(double)} = &{rng.choice(pointers)};"
            )
        elif roll < 0.6:
            statements.append(
                f"{rng.choice(pointers)} = *{rng.choice(double)};"
            )
        elif roll < 0.7:
            statements.append(
                f"*{rng.choice(double)} = {rng.choice(pointers)};"
            )
        elif roll < 0.8:
            statements.append(f"{rng.choice(pointers)} = malloc(8);")
        elif roll < 0.9:
            statements.append(
                f"callee({rng.choice(pointers)}, {rng.choice(double)});"
            )
        else:
            statements.append(
                f"{rng.choice(pointers)} = give({rng.choice(pointers)});"
            )
    lines.extend(f"  {s}" for s in statements)
    lines.append("  return 0;")
    lines.append("}")
    return "\n".join(lines)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_set_constraints_match_naive_andersen(seed):
    program = parse_program(random_pointer_program(seed))
    analysis = AndersenAnalysis(program)
    ops, locations = extract_pointer_ops(program)
    naive = NaiveAndersen(ops, locations)
    assert analysis.solution() == naive.solution(), seed


def test_pinned_regression_seeds():
    for seed in (0, 5, 77, 1234):
        program = parse_program(random_pointer_program(seed))
        analysis = AndersenAnalysis(program)
        ops, locations = extract_pointer_ops(program)
        naive = NaiveAndersen(ops, locations)
        assert analysis.solution() == naive.solution(), seed


class TestVariance:
    def test_contravariant_projection_rejected(self):
        import pytest as _pytest

        from repro.core.errors import ConstraintError
        from repro.pointsto.analysis import REF
        from repro.core.terms import Variable

        with _pytest.raises(ConstraintError):
            REF.proj(2, Variable("X"))

    def test_contravariant_meet_under_annotation_rejected(self):
        import pytest as _pytest

        from repro.core.annotations import MonoidAlgebra
        from repro.core.errors import ConstraintError
        from repro.core.solver import Solver
        from repro.core.terms import Variable
        from repro.dfa.gallery import one_bit_machine
        from repro.pointsto.analysis import REF

        algebra = MonoidAlgebra(one_bit_machine())
        solver = Solver(algebra)
        a, b, c, d, x = (Variable(n) for n in "ABCDX")
        solver.add(REF(a, b), x)
        with _pytest.raises(ConstraintError):
            solver.add(x, REF(c, d), algebra.symbol("g"))

    def test_variance_distinguishes_constructors(self):
        from repro.core.terms import Constructor

        plain = Constructor("ref", 2)
        varied = Constructor("ref", 2, variance=(True, False))
        assert plain != varied
