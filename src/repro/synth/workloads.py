"""Random constraint workloads for the complexity experiments (§4, §5).

Two generators:

* :func:`random_annotated_graph` — an annotated variable/edge reachability
  instance over a given machine's alphabet, consumable both by the
  bidirectional solver (:func:`solve_bidirectional`) and by the demand
  forward solver (:func:`load_forward`) — the instrument for measuring
  the ``|F_M^≡|`` vs ``|S|`` derived-annotation gap.
* :func:`random_constraint_system` — a full set-constraint system with
  constructors and projections, for cubic-scaling measurements of the
  bidirectional solver.
* :func:`cycle_chain` — a chain of identity-edge rings (the shape CFG
  loops and mutual aliasing induce), the instrument for measuring
  online cycle elimination (see ``repro.core.cycles``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.annotations import MonoidAlgebra
from repro.core.demand import DemandForwardSolver
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable
from repro.dfa.automaton import DFA


@dataclass
class AnnotatedGraphWorkload:
    """Edges ``(src, dst, word)`` over variable indices, plus sources."""

    n_vars: int
    edges: list[tuple[int, int, tuple]]
    sources: list[int]
    sinks: list[int]


def random_annotated_graph(
    machine: DFA,
    n_vars: int,
    n_edges: int,
    seed: int = 0,
    n_sources: int = 1,
    n_sinks: int = 1,
    annotated_fraction: float = 0.5,
) -> AnnotatedGraphWorkload:
    """A random digraph with word-annotated edges.

    ``annotated_fraction`` of edges carry one random alphabet symbol;
    the rest are ε.  Sources and sinks are sampled distinct nodes.
    """
    rng = random.Random(seed)
    alphabet = sorted(machine.alphabet, key=repr)
    edges: list[tuple[int, int, tuple]] = []
    for _ in range(n_edges):
        src = rng.randrange(n_vars)
        dst = rng.randrange(n_vars)
        if alphabet and rng.random() < annotated_fraction:
            word: tuple = (rng.choice(alphabet),)
        else:
            word = ()
        edges.append((src, dst, word))
    nodes = list(range(n_vars))
    rng.shuffle(nodes)
    return AnnotatedGraphWorkload(
        n_vars=n_vars,
        edges=edges,
        sources=nodes[:n_sources],
        sinks=nodes[n_sources : n_sources + n_sinks],
    )


def cycle_chain(
    machine: DFA,
    n_cycles: int,
    cycle_size: int,
    seed: int = 0,
    n_sources: int = 4,
    chords: int = 1,
) -> AnnotatedGraphWorkload:
    """A chain of identity-edge rings joined by annotated edges.

    Each segment is a ring of ``cycle_size`` variables connected by
    ε (identity) edges — the constraint shape CFG loops and cyclic
    aliasing produce — plus ``chords`` extra ε edges between random ring
    members.  One symbol-annotated edge links each ring to the next, so
    facts must traverse every segment.  Without cycle elimination every
    ring member separately accumulates (and re-propagates) every fact
    that enters the ring; with it each ring collapses to one variable.

    Ring edges are emitted in a seed-shuffled order so the online
    detector sees cycles closed at arbitrary points, as a real
    constraint stream would.
    """
    rng = random.Random(seed)
    alphabet = sorted(machine.alphabet, key=repr)
    edges: list[tuple[int, int, tuple]] = []
    n_vars = n_cycles * cycle_size
    for segment in range(n_cycles):
        base = segment * cycle_size
        ring: list[tuple[int, int, tuple]] = [
            (base + i, base + (i + 1) % cycle_size, ())
            for i in range(cycle_size)
        ]
        for _ in range(chords):
            a, b = rng.randrange(cycle_size), rng.randrange(cycle_size)
            if a != b:
                ring.append((base + a, base + b, ()))
        rng.shuffle(ring)
        edges.extend(ring)
        if segment + 1 < n_cycles:
            word: tuple = (rng.choice(alphabet),) if alphabet else ()
            edges.append(
                (base + rng.randrange(cycle_size), base + cycle_size, word)
            )
    # Distinct constants seeded across the first ring (the index names
    # the constant, so indices must differ to get separate sources).
    return AnnotatedGraphWorkload(
        n_vars=n_vars,
        edges=edges,
        sources=list(range(min(n_sources, cycle_size))),
        sinks=[n_vars - 1],
    )


def solve_bidirectional(
    machine: DFA,
    workload: AnnotatedGraphWorkload,
    eager: bool = True,
    cycle_elim: bool = True,
    track_redundant: bool = False,
) -> Solver:
    """Load an annotated-graph workload into the bidirectional solver."""
    algebra = MonoidAlgebra(machine, eager=eager)
    solver = Solver(
        algebra, cycle_elim=cycle_elim, track_redundant=track_redundant
    )
    variables = [Variable(f"v{i}") for i in range(workload.n_vars)]
    for index in workload.sources:
        source = Constructor(f"src{index}", 0)()
        solver.add(source, variables[index])
    for src, dst, word in workload.edges:
        solver.add(variables[src], variables[dst], algebra.word(word))
    return solver


def load_forward(
    machine: DFA, workload: AnnotatedGraphWorkload
) -> DemandForwardSolver:
    """Load an annotated-graph workload into the demand forward solver.

    Every workload source is declared under the one source name
    ``"src"``, so ``load_forward(...).solve("src")`` tabulates from all
    of them at once.
    """
    solver = DemandForwardSolver(machine)
    variables = [Variable(f"v{i}") for i in range(workload.n_vars)]
    for index in workload.sources:
        solver.add_source("src", variables[index])
    for src, dst, word in workload.edges:
        solver.add(variables[src], variables[dst], word)
    return solver


def random_constraint_system(
    machine: DFA,
    n_vars: int,
    n_constraints: int,
    seed: int = 0,
    max_arity: int = 2,
) -> Solver:
    """A random full constraint system (constructors, projections, edges).

    Roughly 60% variable-variable constraints (half annotated), 20%
    constructed lower bounds, 10% constructed upper bounds, and 10%
    projections, over a pool of constructors with arities up to
    ``max_arity``.
    """
    rng = random.Random(seed)
    algebra = MonoidAlgebra(machine)
    solver = Solver(algebra)
    alphabet = sorted(machine.alphabet, key=repr)
    variables = [Variable(f"v{i}") for i in range(n_vars)]
    constructors = [
        Constructor(f"c{arity}_{i}", arity)
        for arity in range(1, max_arity + 1)
        for i in range(3)
    ]
    constants = [Constructor(f"k{i}", 0)() for i in range(5)]

    def var() -> Variable:
        return variables[rng.randrange(n_vars)]

    for _ in range(n_constraints):
        roll = rng.random()
        if roll < 0.6:
            if alphabet and rng.random() < 0.5:
                annotation = algebra.symbol(rng.choice(alphabet))
            else:
                annotation = algebra.identity
            solver.add(var(), var(), annotation)
        elif roll < 0.8:
            ctor = rng.choice(constructors)
            args = tuple(var() for _ in range(ctor.arity))
            solver.add(Constructor(ctor.name, ctor.arity)(*args), var())
        elif roll < 0.9:
            solver.add(rng.choice(constants), var())
        else:
            ctor = rng.choice(constructors)
            index = rng.randrange(ctor.arity) + 1
            solver.add(ctor.proj(index, var()), var())
    return solver
