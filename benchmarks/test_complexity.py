"""E10 — §4/§5: complexity scaling of the solvers.

Three measurements:

* **cubic-family scaling in n** — solve random constraint systems of
  growing size with a fixed small machine and fit the growth exponent
  (the paper's bound is ``O(n^3 |F|^2)``; random sparse systems sit
  well below the worst case, so we assert the *fit* stays polynomial
  and report it);
* **scaling in |F|** — the same graph solved under machines with
  growing monoids (the ``|F|^2`` factor);
* **forward vs bidirectional** — the Section 5 punchline: derived
  annotations per node are capped at ``|S|`` for the demand forward
  solver versus ``|F_M^≡|`` bidirectionally, with the matching time gap.
"""

from __future__ import annotations

import math

import pytest

from benchmarks._util import report, timed
from repro.core.annotations import MonoidAlgebra, UnannotatedAlgebra
from repro.core.solver import Solver
from repro.dfa.gallery import adversarial_machine, one_bit_machine
from repro.synth import load_forward, random_annotated_graph
from repro.synth.workloads import random_constraint_system, solve_bidirectional


def fit_exponent(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    logs = [(math.log(x), math.log(max(y, 1e-9))) for x, y in zip(xs, ys)]
    n = len(logs)
    mean_x = sum(x for x, _ in logs) / n
    mean_y = sum(y for _, y in logs) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in logs)
    den = sum((x - mean_x) ** 2 for x, _ in logs)
    return num / den


def test_scaling_in_n():
    machine = one_bit_machine()
    sizes = [50, 100, 200, 400, 800]
    times = []
    facts = []
    rows = [f"{'n (constraints)':>16} {'solve (s)':>10} {'facts':>9}"]
    for size in sizes:
        solver, elapsed = timed(
            random_constraint_system, machine, max(10, size // 5), size, 0
        )
        times.append(elapsed)
        facts.append(solver.fact_count())
        rows.append(f"{size:16d} {elapsed:10.3f} {solver.fact_count():9d}")
    exponent = fit_exponent(sizes, times)
    rows.append(f"fitted time exponent: {exponent:.2f} (bound: 3)")
    # Random sparse systems stay polynomial, far under the cubic bound.
    assert exponent < 3.5
    report("E10_scaling_in_n", rows)


def test_scaling_in_monoid_size():
    rows = [
        f"{'|S|':>4} {'|F|':>6} {'solve (s)':>10} {'facts':>9} "
        f"{'max anns/pair':>14}"
    ]
    for n in (2, 3, 4):
        machine = adversarial_machine(n)
        workload = random_annotated_graph(
            machine, n_vars=30, n_edges=150, seed=3, annotated_fraction=0.9
        )
        solver, elapsed = timed(solve_bidirectional, machine, workload)
        max_pair = 0
        for var in solver.variables():
            per_source: dict = {}
            for src, ann in solver.lower_bounds(var):
                per_source.setdefault(src, set()).add(ann)
            for anns in per_source.values():
                max_pair = max(max_pair, len(anns))
        rows.append(
            f"{n:4d} {n**n:6d} {elapsed:10.3f} {solver.fact_count():9d} "
            f"{max_pair:14d}"
        )
        assert max_pair <= n**n
    report("E10_scaling_in_F", rows)


def test_forward_vs_bidirectional():
    rows = [
        f"{'|S|':>4} {'bidi (s)':>9} {'fwd (s)':>8} {'bidi facts':>11} "
        f"{'fwd facts':>10}"
    ]
    for n in (2, 3, 4):
        machine = adversarial_machine(n)
        workload = random_annotated_graph(
            machine, n_vars=60, n_edges=400, seed=11, annotated_fraction=0.9
        )
        bidi, bidi_time = timed(solve_bidirectional, machine, workload)
        forward, forward_time = timed(load_forward(machine, workload).solve, "src")
        # Distinct (variable, state) pairs: ``forward.fact_count`` counts
        # (anchor, fact) path edges instead.
        forward_facts = sum(
            len(forward.states_of(var)) for var in forward.variables()
        )
        rows.append(
            f"{n:4d} {bidi_time:9.3f} {forward_time:8.3f} "
            f"{bidi.fact_count():11d} {forward_facts:10d}"
        )
        # The paper's asymptotic claim, observable already at |S|=4:
        # forward keeps at most |S| annotations per node.
        assert forward.max_states_per_variable() <= n
    report("E10_forward_vs_bidirectional", rows)


def test_unannotated_baseline_comparison():
    """The classical cubic fragment (no annotations) as the reference
    point of Section 4's argument."""
    machine = one_bit_machine()
    workload = random_annotated_graph(
        machine, n_vars=100, n_edges=600, seed=5, annotated_fraction=0.0
    )
    from repro.core.terms import Constructor, Variable

    def solve_unannotated():
        solver = Solver(UnannotatedAlgebra())
        variables = [Variable(f"v{i}") for i in range(workload.n_vars)]
        for index in workload.sources:
            solver.add(Constructor(f"s{index}", 0)(), variables[index])
        for u, v, _word in workload.edges:
            solver.add(variables[u], variables[v])
        return solver

    plain, plain_time = timed(solve_unannotated)
    annotated, annotated_time = timed(solve_bidirectional, machine, workload)
    rows = [
        f"unannotated: {plain_time:.3f}s, {plain.fact_count()} facts",
        f"annotated (identity-only words): {annotated_time:.3f}s, "
        f"{annotated.fact_count()} facts",
    ]
    report("E10_unannotated_baseline", rows)


def test_demand_forward_vs_bidirectional_model_checking():
    """§5's whole-program-vs-separate-analysis tradeoff, end to end:
    the demand forward checker against the bidirectional one on a
    synthetic package, same verdicts, |S|-bounded facts."""
    from repro.cfg import build_cfg
    from repro.modelcheck import (
        AnnotatedChecker,
        DemandChecker,
        full_privilege_property,
    )
    from repro.synth import PackageSpec, generate_package

    prop = full_privilege_property()
    rows = [
        f"{'lines':>7} {'bidi (s)':>9} {'demand (s)':>11} {'bidi facts':>11} "
        f"{'demand facts':>13} {'max states/var':>15}"
    ]
    for lines, functions in ((4000, 60), (12000, 150), (22000, 260)):
        cfg = build_cfg(
            generate_package(PackageSpec("cmp", lines, functions, seed=37))
        )
        bidirectional, bidi_time = timed(
            lambda c=cfg: AnnotatedChecker(c, prop)
        )
        bidi_verdict = bidirectional.check().has_violation

        def run_demand(c=cfg):
            checker = DemandChecker(c, prop)
            checker.has_violation()
            return checker

        demand, demand_time = timed(run_demand)
        solution = demand.solution()
        rows.append(
            f"{lines:7d} {bidi_time:9.2f} {demand_time:11.2f} "
            f"{bidirectional.solver.fact_count():11d} "
            f"{solution.fact_count:13d} "
            f"{solution.max_states_per_variable():15d}"
        )
        assert bidi_verdict == demand.has_violation()
        assert solution.max_states_per_variable() <= prop.machine.n_states
    report("E10_demand_vs_bidirectional_checking", rows)


@pytest.mark.parametrize("size", [100, 400])
def test_solver_speed(benchmark, size):
    machine = one_bit_machine()
    benchmark.extra_info["constraints"] = size
    benchmark.pedantic(
        lambda: random_constraint_system(machine, max(10, size // 5), size, 0),
        rounds=1,
        iterations=1,
    )
