"""E3 — Fig 2 / §4: the adversarial machine's superexponential monoid.

The rotate/swap/merge machine realizes every one of the ``|S|^|S|``
functions, so ``|F_M^≡|`` is superexponential in the specification —
the paper's worst case for bidirectional solving.  The same table also
shows the forward escape hatch: the demand forward solver only ever
needs ``|S|`` derived annotations (Section 5.1).
"""

from __future__ import annotations

import pytest

from benchmarks._util import report, timed
from repro.dfa.gallery import adversarial_machine
from repro.dfa.monoid import TransitionMonoid, monoid_size_lower_bound
from repro.synth import load_forward, random_annotated_graph
from repro.synth.workloads import solve_bidirectional


def test_monoid_growth():
    rows = [
        f"{'|S|':>4} {'|S|^|S|':>12} {'|F_M| measured':>15} "
        f"{'forward classes':>16}"
    ]
    for n in (1, 2, 3, 4, 5):
        machine = adversarial_machine(n)
        monoid = TransitionMonoid(machine, max_size=5_000)
        size = monoid.size()
        rows.append(
            f"{n:4d} {n**n:12d} {size:15d} {len(monoid.forward_classes()):16d}"
        )
        assert size == n**n
        assert len(monoid.forward_classes()) <= n
    # n = 6 is probed without full enumeration (6^6 = 46656).
    assert monoid_size_lower_bound(adversarial_machine(6), budget=50_000) == 46_656
    rows.append(f"{6:4d} {6**6:12d} {46_656:15d} {'<= 6':>16}")
    report("E3_fig2_monoid_growth", rows)


@pytest.mark.parametrize("n_states", [2, 3, 4])
def test_bidirectional_solving_cost_grows(benchmark, n_states):
    """Bidirectional solve time over the same graph, growing |F|."""
    machine = adversarial_machine(n_states)
    workload = random_annotated_graph(
        machine, n_vars=40, n_edges=200, seed=7, annotated_fraction=0.8
    )
    benchmark.extra_info["monoid"] = n_states**n_states
    benchmark.pedantic(
        lambda: solve_bidirectional(machine, workload), rounds=1, iterations=1
    )


def test_derived_annotation_counts():
    """Bidirectional derived annotations per node vs forward's |S| cap."""
    rows = [
        f"{'|S|':>4} {'|F_M|':>7} {'bidi max anns/node':>19} "
        f"{'fwd max anns/node':>18}"
    ]
    for n in (2, 3, 4):
        machine = adversarial_machine(n)
        workload = random_annotated_graph(
            machine, n_vars=40, n_edges=200, seed=7, annotated_fraction=0.8
        )
        solver = solve_bidirectional(machine, workload)
        bidi_max = 0
        for var in solver.variables():
            per_source: dict = {}
            for src, ann in solver.lower_bounds(var):
                per_source.setdefault(src, set()).add(ann)
            for anns in per_source.values():
                bidi_max = max(bidi_max, len(anns))
        forward = load_forward(machine, workload).solve("src")
        fwd_max = forward.max_states_per_variable()
        rows.append(f"{n:4d} {n**n:7d} {bidi_max:19d} {fwd_max:18d}")
        assert fwd_max <= n
    report("E3_fig2_derived_annotations", rows)
