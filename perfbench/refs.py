"""Independent verdict references.

Verdicts are never compared with the solver under test.  ``check`` and
``patch`` verdicts are compared, node for node, with the error nodes of
the MOPS pushdown model checker (``repro.mops``); ``dataflow`` results
with the may-hold sets of the summary-based bit-vector analysis
(``repro.dataflow.classic``).  Nodes are compared by their description
(``function:line: call(args)``), as a multiset, because that is what
the CLI prints and the service returns.
"""

from __future__ import annotations

import re
from collections import Counter

from repro.cfg import ProgramCFG
from repro.dataflow.classic import FunctionalBitVectorAnalysis
from repro.dataflow.problems import call_tracking_problem
from repro.modelcheck import PROPERTY_FACTORIES
from repro.mops import MopsChecker


def check_reference(cfg: ProgramCFG, prop: str) -> Counter:
    """Multiset of the descriptions of MOPS's error nodes."""
    result = MopsChecker(cfg, PROPERTY_FACTORIES[prop]()).check()
    return Counter(node.describe() for node in result.error_nodes)


def dataflow_reference(cfg: ProgramCFG, track: list[str]) -> list[list]:
    """``[where, line, sorted may-hold names]`` for every call node."""
    problem = call_tracking_problem(cfg, track)
    analysis = FunctionalBitVectorAnalysis(cfg, problem)
    return [
        [
            node.describe(),
            node.line,
            sorted(problem.facts[i] for i in analysis.may_hold(node)),
        ]
        for node in cfg.all_nodes()
        if node.call is not None
    ]


def service_nodes(result: dict) -> Counter:
    """The violation nodes of a ``check`` or ``patch`` response."""
    return Counter(item["where"] for item in result["violations"])


def service_dataflow(result: dict) -> list[list]:
    return [
        [item["where"], item["line"], list(item["may_hold"])]
        for item in result["nodes"]
    ]


_VIOLATION = "  violation at "
_VERDICT = re.compile(r"\((\d+) finding\(s\), (\d+) solved-form facts\)")


def cli_counts(stdout: str) -> dict[str, int]:
    """Violations and solved-form facts from ``repro check``'s verdict line."""
    match = _VERDICT.search(stdout.split("\n", 1)[0])
    if match is None:
        return {}
    return {"violations": int(match.group(1)), "facts": int(match.group(2))}


def cli_nodes(stdout: str) -> Counter | None:
    """Violation nodes printed by ``repro check``; None if it printed no
    verdict line or truncated the list."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("[annotated] "):
        return None
    if any(line.startswith("  ... and ") for line in lines):
        return None
    return Counter(
        line[len(_VIOLATION):] for line in lines[1:] if line.startswith(_VIOLATION)
    )
