"""Regularly annotated set constraints: terms, algebras, solver, queries.

This subpackage is the paper's primary contribution.  The usual entry
point is :class:`~repro.core.system.AnnotatedConstraintSystem`, which
bundles a property machine, its annotation algebra, the bidirectional
solver and the query engine; the pieces are also usable à la carte.
"""

from repro.core.annotations import (
    CompiledGenKillAlgebra,
    CompiledMonoidAlgebra,
    MonoidAlgebra,
    ProductAlgebra,
    UnannotatedAlgebra,
    compile_algebra,
)
from repro.core.budget import Budget, CancellationToken
from repro.core.errors import (
    ConstraintError,
    Inconsistency,
    JournalCorrupt,
    NoSolutionError,
    SnapshotCorrupt,
    SolverBudgetExceeded,
    SolverCancelled,
    SolverInterrupted,
)
from repro.core.parametric import ParametricAlgebra, SubstitutionEnvironment
from repro.core.persist import (
    dfa_from_dict,
    dfa_to_dict,
    dump_solver,
    load_solver,
    load_solver_snapshot,
    read_snapshot,
    write_snapshot,
    write_solver_snapshot,
)
from repro.core.demand import (
    DemandBackwardSolver,
    DemandForwardSolver,
    DemandSolution,
)
from repro.core.flatcore import FlatSolver
from repro.core.queries import Reachability, least_solution_terms, trace_lower
from repro.core.semantics import ReferenceSemantics, WordConstraint
from repro.core.solver import Reason, Solver
from repro.core.system import AnnotatedConstraintSystem
from repro.core.terms import (
    Constructed,
    Constructor,
    GroundTerm,
    Projection,
    Variable,
    VariableFactory,
    constant,
    ground,
)

__all__ = [
    "AnnotatedConstraintSystem",
    "Budget",
    "CancellationToken",
    "JournalCorrupt",
    "SnapshotCorrupt",
    "SolverBudgetExceeded",
    "SolverCancelled",
    "SolverInterrupted",
    "CompiledGenKillAlgebra",
    "CompiledMonoidAlgebra",
    "ConstraintError",
    "DemandBackwardSolver",
    "DemandForwardSolver",
    "DemandSolution",
    "Constructed",
    "Constructor",
    "FlatSolver",
    "GroundTerm",
    "Inconsistency",
    "MonoidAlgebra",
    "NoSolutionError",
    "ParametricAlgebra",
    "ProductAlgebra",
    "Projection",
    "Reachability",
    "Reason",
    "ReferenceSemantics",
    "Solver",
    "SubstitutionEnvironment",
    "UnannotatedAlgebra",
    "Variable",
    "VariableFactory",
    "WordConstraint",
    "compile_algebra",
    "constant",
    "dfa_from_dict",
    "dfa_to_dict",
    "dump_solver",
    "ground",
    "least_solution_terms",
    "load_solver",
    "load_solver_snapshot",
    "read_snapshot",
    "trace_lower",
    "write_snapshot",
    "write_solver_snapshot",
]
