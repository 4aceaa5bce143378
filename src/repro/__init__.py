"""repro — Regularly Annotated Set Constraints (Kodumal & Aiken, PLDI 2007).

A from-scratch reproduction of the paper's constraint formalism and its
applications:

* :mod:`repro.dfa` — automata, transition monoids (representative
  functions), the annotation specification language, and the paper's
  gallery of property machines;
* :mod:`repro.core` — annotated set constraints: terms, annotation
  algebras (including parametric substitution environments), the online
  bidirectional solver, forward/backward solvers, and entailment/PN
  queries;
* :mod:`repro.cfg` — a mini-C front end and interprocedural control-flow
  graphs;
* :mod:`repro.modelcheck` — the Section 6 pushdown model checker built
  on annotated constraints;
* :mod:`repro.mops` — the MOPS-style PDA + ``post*`` baseline checker;
* :mod:`repro.dataflow` — interprocedural bit-vector dataflow, both as
  regular annotations and as a classic functional-approach baseline;
* :mod:`repro.flow` — the Section 7 type-based flow analysis with
  polymorphic recursion, non-structural subtyping, its dual analysis,
  and stack-aware alias queries;
* :mod:`repro.incremental` — differential re-solving: edit-stable
  constraint encoding plus a DRed-style patch engine that retracts and
  re-derives only the affected cone of a solved system;
* :mod:`repro.synth` — synthetic workload generators for the
  benchmarks.

Quickstart::

    from repro import AnnotatedConstraintSystem
    from repro.dfa.gallery import one_bit_machine

    system = AnnotatedConstraintSystem(one_bit_machine())
    c = system.constant("c")
    X, Y = system.var("X"), system.var("Y")
    system.add(c, X, "g")
    system.add(X, Y)
    assert system.reaches(Y, c)
"""

from repro.core import (
    AnnotatedConstraintSystem,
    Budget,
    CancellationToken,
    Constructor,
    Solver,
    SolverBudgetExceeded,
    SolverCancelled,
    SolverInterrupted,
    Variable,
    constant,
)
from repro.dfa import DFA, TransitionMonoid, parse_spec, regex_to_dfa

__version__ = "1.19.0"

__all__ = [
    "AnnotatedConstraintSystem",
    "Budget",
    "CancellationToken",
    "Constructor",
    "DFA",
    "Solver",
    "SolverBudgetExceeded",
    "SolverCancelled",
    "SolverInterrupted",
    "TransitionMonoid",
    "Variable",
    "constant",
    "parse_spec",
    "regex_to_dfa",
    "__version__",
]
