"""Synthetic workload generation for the benchmarks.

* :mod:`repro.synth.programs` — C-like package generator standing in for
  the Table 1 benchmark suite (VixieCron/At/Sendmail/Apache; see
  DESIGN.md §5 for the substitution argument);
* :mod:`repro.synth.workloads` — random annotated constraint graphs for
  the Section 4/5 complexity experiments;
* :mod:`repro.synth.editstream` — per-function-deterministic editable
  packages and edit streams for the incremental re-solving experiments.
"""

from repro.synth.editstream import EditablePackage, EditStep, edit_stream
from repro.synth.programs import PackageSpec, TABLE1_PACKAGES, generate_package
from repro.synth.workloads import (
    cycle_chain,
    load_forward,
    random_annotated_graph,
    random_constraint_system,
    solve_bidirectional,
)

__all__ = [
    "EditStep",
    "EditablePackage",
    "PackageSpec",
    "TABLE1_PACKAGES",
    "cycle_chain",
    "edit_stream",
    "generate_package",
    "load_forward",
    "random_annotated_graph",
    "random_constraint_system",
    "solve_bidirectional",
]
