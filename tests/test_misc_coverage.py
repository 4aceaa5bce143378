"""Broad-sweep tests for smaller surfaces: spec round-trips, lazy
monoids, render/CLI corners, CFG plumbing, and result helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import build_cfg
from repro.core.errors import ConstraintError
from repro.core.semantics import ReferenceSemantics, WordConstraint
from repro.core.terms import Constructor, Variable, constant
from repro.dfa.gallery import FILE_STATE_SPEC, PRIVILEGE_SPEC, one_bit_machine
from repro.dfa.monoid import TransitionMonoid
from repro.dfa.spec import parse_spec


class TestSpecRoundTrip:
    @pytest.mark.parametrize("text", [PRIVILEGE_SPEC, FILE_STATE_SPEC])
    def test_gallery_specs_round_trip(self, text):
        spec = parse_spec(text)
        reparsed = parse_spec(spec.unparse())
        assert reparsed.states == spec.states
        assert reparsed.start == spec.start
        assert reparsed.accepting == spec.accepting
        assert reparsed.transitions == spec.transitions
        assert reparsed.symbols == spec.symbols

    def test_unparse_stateless_state(self):
        spec = parse_spec("start accept state Lonely;")
        text = spec.unparse()
        assert "start accept state Lonely;" in text
        assert parse_spec(text).states == ["Lonely"]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_specs_round_trip(self, seed):
        import random

        rng = random.Random(seed)
        n_states = rng.randrange(1, 5)
        states = [f"S{i}" for i in range(n_states)]
        symbols = [f"sym{i}" for i in range(rng.randrange(1, 4))]
        lines = []
        for i, state in enumerate(states):
            prefix = "start " if i == 0 else ""
            accept = "accept " if rng.random() < 0.4 else ""
            used = [s for s in symbols if rng.random() < 0.6]
            if used:
                lines.append(f"{prefix}{accept}state {state} :")
                for j, sym in enumerate(used):
                    target = rng.choice(states)
                    end = ";" if j == len(used) - 1 else ""
                    lines.append(f"  | {sym} -> {target}{end}")
            else:
                lines.append(f"{prefix}{accept}state {state};")
        spec = parse_spec("\n".join(lines))
        assert parse_spec(spec.unparse()).transitions == spec.transitions


class TestLazyMonoid:
    def test_lazy_equals_eager(self):
        machine = one_bit_machine()
        eager = TransitionMonoid(machine, eager=True)
        lazy = TransitionMonoid(machine, eager=False)
        assert eager.elements() == lazy.elements()
        f_g = eager.generator("g")
        assert eager.then(f_g, f_g) == lazy.then(f_g, f_g)

    def test_accepting_functions_lazy(self):
        machine = one_bit_machine()
        lazy = TransitionMonoid(machine, eager=False)
        assert lazy.generator("g") in lazy.accepting_functions()


class TestReferenceSemanticsEdges:
    def test_rejects_constructed_rhs(self):
        machine = one_bit_machine()
        box = Constructor("box", 1)
        with pytest.raises(ConstraintError):
            ReferenceSemantics(
                machine,
                [WordConstraint(constant("c"), box(Variable("X")))],  # type: ignore[arg-type]
            )

    def test_rejects_nonvariable_constructor_args(self):
        machine = one_bit_machine()
        box = Constructor("box", 1)
        with pytest.raises(ConstraintError):
            ReferenceSemantics(
                machine,
                [WordConstraint(box(constant("c")), Variable("X"))],
            )

    def test_depth_bound_respected(self):
        machine = one_bit_machine()
        box = Constructor("box", 1)
        x = Variable("X")
        reference = ReferenceSemantics(
            machine,
            [
                WordConstraint(constant("c"), x),
                WordConstraint(box(x), x),
            ],
            max_depth=3,
        )
        assert reference.terms_of(x)
        assert max(t.depth() for t in reference.terms_of(x)) <= 3

    def test_word_bound_respected(self):
        machine = one_bit_machine()
        x, y = Variable("X"), Variable("Y")
        reference = ReferenceSemantics(
            machine,
            [
                WordConstraint(constant("c"), x),
                WordConstraint(x, y, ("g",) * 10),
            ],
            max_word=4,
        )
        assert not reference.terms_of(y)


class TestCFGPlumbing:
    def test_predecessors(self):
        cfg = build_cfg("int main() { a(); b(); }")
        b_node = next(n for n in cfg.all_nodes() if n.call and n.call.callee == "b")
        preds = list(cfg.predecessors(b_node))
        assert preds
        assert all(b_node.id in [s.id for s in cfg.successors(p)] for p in preds)

    def test_duplicate_edges_ignored(self):
        from repro.cfg.graph import CFGNode, ProgramCFG

        cfg = ProgramCFG()
        a = cfg.add_node(CFGNode(0, "f", "stmt"))
        b = cfg.add_node(CFGNode(1, "f", "stmt"))
        cfg.add_edge(a, b)
        cfg.add_edge(a, b)
        assert cfg.edge_count() == 1

    def test_describe_variants(self):
        cfg = build_cfg('void f(int p) { } int main() { f(g(1)); x = "s"; }')
        texts = {n.describe() for n in cfg.all_nodes()}
        assert any("f(" in t for t in texts)
        assert any(":entry" in t for t in texts)


class TestResultHelpers:
    def test_violation_lines(self):
        from repro.modelcheck import AnnotatedChecker, simple_privilege_property

        cfg = build_cfg(
            'int main() { seteuid(0); execl("/x", 0); done(); }'
        )
        result = AnnotatedChecker(cfg, simple_privilege_property()).check()
        assert result.violation_lines()
        assert all(isinstance(line, int) for line in result.violation_lines())

    def test_mops_violation_lines(self):
        from repro.modelcheck import simple_privilege_property
        from repro.mops import MopsChecker

        cfg = build_cfg('int main() { seteuid(0); execl("/x", 0); }')
        result = MopsChecker(cfg, simple_privilege_property()).check()
        assert result.violation_lines()

    def test_inconsistency_str(self):
        from repro.core.errors import Inconsistency

        text = str(Inconsistency("a", "b", "f"))
        assert "inconsistent" in text


class TestSolverCorners:
    def test_upper_bounds_view(self):
        from repro.core.solver import Solver

        solver = Solver()
        box = Constructor("box", 1)
        x, y = Variable("X"), Variable("Y")
        solver.add(x, box(y))
        assert list(solver.upper_bounds(x))

    def test_projection_sinks_view(self):
        from repro.core.solver import Solver

        solver = Solver()
        box = Constructor("box", 1)
        x, z = Variable("X"), Variable("Z")
        solver.add(box.proj(1, x), z)
        assert list(solver.projection_sinks(x))

    def test_constructed_both_sides_direct_meet(self):
        from repro.core.solver import Solver

        solver = Solver()
        box = Constructor("box", 1)
        a, b = Variable("A"), Variable("B")
        solver.add(box(a), box(b))
        assert (b, solver.algebra.identity) in set(solver.edges_from(a))

    def test_variance_length_checked(self):
        with pytest.raises(ConstraintError):
            Constructor("bad", 2, variance=(True,))


class TestSpecializer:
    """The §8 specializer output: F_M plus the ∘ lookup table."""

    def test_composition_table_consistent(self):
        from repro.dfa.gallery import privilege_machine

        monoid = TransitionMonoid(privilege_machine())
        elements, table = monoid.composition_table()
        assert len(elements) == monoid.size()
        index = {fn: i for i, fn in enumerate(elements)}
        for i, first in enumerate(elements):
            for j, second in enumerate(elements):
                assert table[i][j] == index[first.then(second)]

    def test_identity_row_and_column(self):
        from repro.dfa.gallery import one_bit_machine

        monoid = TransitionMonoid(one_bit_machine())
        elements, table = monoid.composition_table()
        identity_index = elements.index(monoid.identity)
        for i in range(len(elements)):
            assert table[identity_index][i] == i
            assert table[i][identity_index] == i

    def test_cli_specialize(self, tmp_path, capsys):
        import json

        from repro.cli import main as cli_main

        spec_path = tmp_path / "p.spec"
        spec_path.write_text(
            "start state A : | s -> B;\naccept state B;\n"
        )
        out_path = tmp_path / "table.json"
        assert cli_main(["specialize", str(spec_path), "-o", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        n = len(data["functions"])
        assert len(data["compose"]) == n
        assert all(len(row) == n for row in data["compose"])
        assert data["accepting_functions"]

    def test_cli_specialize_stdout(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        spec_path = tmp_path / "p.spec"
        spec_path.write_text("start accept state A : | s -> A;\n")
        assert cli_main(["specialize", str(spec_path), "--compact"]) == 0
        assert '"compose"' in capsys.readouterr().out


class TestVersion:
    def test_package_metadata_matches_module(self):
        # Python 3.10 has no tomllib; the [project] version line is
        # simple enough for a regex.
        import re
        from pathlib import Path

        import repro

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        found = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert found is not None
        assert found.group(1) == repro.__version__
