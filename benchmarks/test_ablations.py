"""E11 — ablations of the solver's design choices (DESIGN.md §3).

Three switches the paper (or its implementation, §8) relies on:

* **liveness pruning** — dropping necessarily-non-accepting annotations
  during closure (justified by minimality of M, §3.1);
* **ε-cycle elimination** — one variable per cycle of identity-annotated
  edges (the cycle-elimination optimization BANSHEE applies, §8);
* **eager vs lazy monoid** — precomputing ``F_M^≡`` with a composition
  table (the specializer) versus composing on demand.

Each is toggled independently; verdicts must not change, fact counts
and times show the effect.
"""

from __future__ import annotations

import pytest

from benchmarks._util import report, timed
from repro.cfg import build_cfg
from repro.core.annotations import MonoidAlgebra
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable, constant
from repro.dfa.regex import regex_to_dfa
from repro.modelcheck import AnnotatedChecker, full_privilege_property
from repro.synth import PackageSpec, generate_package


@pytest.fixture(scope="module")
def workload_cfg():
    source = generate_package(PackageSpec("ablation", 6000, 90, seed=23))
    return build_cfg(source)


def test_cycle_elimination_ablation(workload_cfg):
    prop = full_privilege_property()
    plain_checker, plain_time = timed(
        lambda: AnnotatedChecker(workload_cfg, prop)
    )
    collapsed_checker, collapsed_time = timed(
        lambda: AnnotatedChecker(workload_cfg, prop, collapse_cycles=True)
    )
    plain_verdict = plain_checker.check().has_violation
    collapsed_verdict = collapsed_checker.check().has_violation
    rows = [
        f"{'configuration':24} {'solve (s)':>10} {'facts':>9} {'variables':>10}",
        f"{'plain':24} {plain_time:10.2f} {plain_checker.solver.fact_count():9d} "
        f"{len(plain_checker.solver.variables()):10d}",
        f"{'ε-cycle elimination':24} {collapsed_time:10.2f} "
        f"{collapsed_checker.solver.fact_count():9d} "
        f"{len(collapsed_checker.solver.variables()):10d}",
    ]
    assert plain_verdict == collapsed_verdict
    assert (
        collapsed_checker.solver.fact_count() <= plain_checker.solver.fact_count()
    )
    report("E11_ablation_cycle_elimination", rows)


def _dead_heavy_workload(solver, algebra, n: int = 120):
    """A chain where half the annotated steps begin dead words."""
    c = constant("c")
    variables = [Variable(f"v{i}") for i in range(n)]
    solver.add(c, variables[0])
    for i in range(n - 1):
        word = "a" if i % 2 == 0 else "b"  # 'b'-first words are dead
        solver.add(variables[i], variables[i + 1], algebra.word(word))
        solver.add(variables[0], variables[i + 1], algebra.word("b"))
    return solver


def test_liveness_pruning_ablation():
    machine = regex_to_dfa("(ab)+")
    algebra = MonoidAlgebra(machine)
    pruned, pruned_time = timed(
        lambda: _dead_heavy_workload(Solver(algebra), algebra)
    )
    unpruned, unpruned_time = timed(
        lambda: _dead_heavy_workload(Solver(algebra, prune_dead=False), algebra)
    )
    rows = [
        f"{'configuration':18} {'solve (s)':>10} {'facts':>8}",
        f"{'pruning on':18} {pruned_time:10.3f} {pruned.fact_count():8d}",
        f"{'pruning off':18} {unpruned_time:10.3f} {unpruned.fact_count():8d}",
    ]
    assert pruned.fact_count() < unpruned.fact_count()
    report("E11_ablation_liveness_pruning", rows)


def test_eager_vs_lazy_monoid(workload_cfg):
    prop = full_privilege_property()
    eager_checker, eager_time = timed(
        lambda: AnnotatedChecker(
            workload_cfg, prop, algebra=MonoidAlgebra(prop.machine, eager=True)
        )
    )
    lazy_checker, lazy_time = timed(
        lambda: AnnotatedChecker(
            workload_cfg, prop, algebra=MonoidAlgebra(prop.machine, eager=False)
        )
    )
    rows = [
        f"{'monoid mode':12} {'encode+solve (s)':>17} {'facts':>9}",
        f"{'eager':12} {eager_time:17.2f} {eager_checker.solver.fact_count():9d}",
        f"{'lazy':12} {lazy_time:17.2f} {lazy_checker.solver.fact_count():9d}",
    ]
    assert eager_checker.solver.fact_count() == lazy_checker.solver.fact_count()
    report("E11_ablation_monoid_mode", rows)


@pytest.mark.parametrize("collapse", [False, True], ids=["plain", "collapsed"])
def test_checker_speed_with_cycle_elimination(benchmark, workload_cfg, collapse):
    prop = full_privilege_property()
    benchmark.extra_info["collapse_cycles"] = collapse
    benchmark.pedantic(
        lambda: AnnotatedChecker(
            workload_cfg, prop, collapse_cycles=collapse
        ).check(),
        rounds=1,
        iterations=1,
    )
