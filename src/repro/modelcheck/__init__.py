"""Pushdown model checking with annotated constraints (Section 6)."""

from repro.modelcheck.checker import (
    AnnotatedChecker,
    CheckResult,
    Violation,
    uses_flat_core,
)
from repro.modelcheck.combine import combine_properties, component_errors
from repro.modelcheck.demand import DemandChecker
from repro.modelcheck.properties import (
    PROPERTY_FACTORIES,
    Property,
    chroot_property,
    file_state_property,
    full_privilege_property,
    heap_state_property,
    simple_privilege_property,
)

__all__ = [
    "PROPERTY_FACTORIES",
    "AnnotatedChecker",
    "CheckResult",
    "DemandChecker",
    "Property",
    "Violation",
    "chroot_property",
    "combine_properties",
    "component_errors",
    "file_state_property",
    "full_privilege_property",
    "heap_state_property",
    "simple_privilege_property",
    "uses_flat_core",
]
