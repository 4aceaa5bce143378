"""Tests for interprocedural CFG construction."""

import pytest

from repro.cfg import ast, build_cfg


def node_kinds(cfg, function):
    return [n.kind for n in cfg.functions[function].nodes]


class TestStructure:
    def test_entry_and_exit(self):
        cfg = build_cfg("int main() { return 0; }")
        main = cfg.main
        assert main.entry.kind == "entry"
        assert main.exit.kind == "exit"
        # the return statement reaches the exit
        preds = list(cfg.predecessors(main.exit))
        assert preds

    def test_straight_line(self):
        cfg = build_cfg("int main() { a(); b(); }")
        calls = [n for n in cfg.all_nodes() if n.call is not None]
        assert [c.call.callee for c in calls] == ["a", "b"]

    def test_branching_joins(self):
        cfg = build_cfg("int main() { if (x) { a(); } else { b(); } c(); }")
        c_node = next(n for n in cfg.all_nodes() if n.call and n.call.callee == "c")
        # both branches flow into the statement before c's node chain
        preds = list(cfg.predecessors(c_node))
        assert len(preds) == 2

    def test_loop_back_edge(self):
        cfg = build_cfg("int main() { while (x) { a(); } b(); }")
        nodes = list(cfg.all_nodes())
        header = next(
            n for n in nodes if n.stmt is not None and isinstance(n.stmt, ast.While)
        )
        # the loop body's last node flows back to the header
        assert any(header.id in [s.id for s in cfg.successors(p)]
                   for p in cfg.predecessors(header))

    def test_break_exits_loop(self):
        cfg = build_cfg("int main() { while (1) { if (x) break; a(); } done(); }")
        done = next(n for n in cfg.all_nodes() if n.call and n.call.callee == "done")
        preds = {p.kind for p in cfg.predecessors(done)}
        assert preds  # break node flows here

    def test_continue_runs_the_for_step(self):
        cfg = build_cfg(
            "int main() { for (;; step()) { if (x) continue; a(); } }"
        )
        nodes = list(cfg.all_nodes())
        header = next(n for n in nodes if isinstance(n.stmt, ast.While))
        continue_node = next(n for n in nodes if isinstance(n.stmt, ast.Continue))
        a_stmt = next(n for n in nodes if n.stmt == ast.ExprStmt(1, ast.Call(1, "a", ())))
        step_call = next(n for n in nodes if n.call and n.call.callee == "step")
        (step_stmt,) = cfg.successors(step_call)
        # the body's end and the continue both run the step, and only
        # the step closes the loop
        assert set(cfg.predecessors(step_call)) == {continue_node, a_stmt}
        assert list(cfg.successors(step_stmt)) == [header]
        assert set(cfg.predecessors(header)) == {cfg.main.entry, step_stmt}

    def test_while_continue_returns_to_header(self):
        cfg = build_cfg("int main() { while (x) { if (y) continue; a(); } }")
        nodes = list(cfg.all_nodes())
        header = next(n for n in nodes if isinstance(n.stmt, ast.While))
        continue_node = next(n for n in nodes if isinstance(n.stmt, ast.Continue))
        assert list(cfg.successors(continue_node)) == [header]

    def test_return_skips_rest(self):
        cfg = build_cfg("int main() { if (x) { return 1; } after(); }")
        after = next(n for n in cfg.all_nodes() if n.call and n.call.callee == "after")
        # the return-statement node must not be a predecessor of after()
        for pred in cfg.predecessors(after):
            assert not isinstance(pred.stmt, ast.Return)


class TestCallSites:
    def test_defined_calls_get_sites(self):
        cfg = build_cfg("void f() { } int main() { f(); f(); }")
        sites = sorted(cfg.call_sites)
        assert len(sites) == 2
        for site in sites:
            node, callee = cfg.call_sites[site]
            assert node.kind == "call"
            assert callee == "f"

    def test_primitive_calls_are_stmts(self):
        cfg = build_cfg("int main() { seteuid(0); }")
        node = next(n for n in cfg.all_nodes() if n.call is not None)
        assert node.kind == "stmt"
        assert node.site is None

    def test_owner_statement_recorded(self):
        cfg = build_cfg("int main() { int fd = open(1); }")
        node = next(n for n in cfg.all_nodes() if n.call is not None)
        assert isinstance(node.owner, ast.Decl)
        assert node.owner.name == "fd"

    def test_owner_for_assignment(self):
        cfg = build_cfg("int main() { int fd; fd = open(1); }")
        node = next(n for n in cfg.all_nodes() if n.call is not None)
        assert isinstance(node.owner, ast.ExprStmt)

    def test_recursion_allowed(self):
        cfg = build_cfg("void f() { f(); } int main() { f(); }")
        assert len(cfg.call_sites) == 2


class TestCounts:
    def test_counts_consistent(self):
        cfg = build_cfg("void f() { a(); } int main() { f(); }")
        assert cfg.node_count() == len(list(cfg.all_nodes()))
        assert cfg.edge_count() > 0

    def test_describe(self):
        cfg = build_cfg('int main() { execl("/bin/sh", 0); }')
        node = next(n for n in cfg.all_nodes() if n.call is not None)
        text = node.describe()
        assert "execl" in text and "/bin/sh" in text

    def test_missing_main(self):
        cfg = build_cfg("void helper() { }")
        with pytest.raises(KeyError):
            _ = cfg.main


class TestFunctionNodes:
    """``FunctionCFG.nodes`` is collected as nodes are made; it must list
    exactly what a scan of the finished graph by function name lists."""

    @staticmethod
    def _scanned(cfg, name):
        return [node for node in cfg.nodes.values() if node.function == name]

    def _assert_matches_scan(self, cfg):
        for name, function in cfg.functions.items():
            scanned = self._scanned(cfg, name)
            assert [n.id for n in function.nodes] == [n.id for n in scanned]
            assert all(a is b for a, b in zip(function.nodes, scanned))

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_synth_packages(self, seed):
        from repro.synth import PackageSpec, generate_package

        source = generate_package(PackageSpec("pkg", 600, 12, seed=seed))
        self._assert_matches_scan(build_cfg(source))

    def test_redefined_function_lists_both_bodies(self):
        from repro.synth import PackageSpec, generate_package

        source = generate_package(PackageSpec("pkg", 400, 8, seed=5))
        source += "void fn_2() { seteuid(0); }\n"
        cfg = build_cfg(source)
        self._assert_matches_scan(cfg)
        nodes = cfg.functions["fn_2"].nodes
        assert [n.kind for n in nodes].count("entry") == 2
