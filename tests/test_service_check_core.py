"""The service's ``check`` op on the core ``repro check`` picks.

A no-traces check of a non-parametric property solves, snapshots,
warm-loads and queries on the flat core; ``traces`` requests and
parametric properties keep the object solver
(:func:`repro.modelcheck.uses_flat_core`).  The cross-core oracle holds
the service's flat answers to an object-core checker and to the MOPS
baseline on generated programs; CI replays it under fixed hypothesis
seeds.
"""

import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import build_cfg
from repro.core.annotations import CompiledMonoidAlgebra
from repro.core.budget import Budget, CancellationToken
from repro.core.errors import SolverBudgetExceeded
from repro.core.flatcore import FlatSolver
from repro.core.persist import (
    dump_solver,
    machine_fingerprint,
    read_snapshot,
    write_snapshot,
)
from repro.core.solver import Solver
from repro.modelcheck import PROPERTY_FACTORIES, AnnotatedChecker, uses_flat_core
from repro.mops import MopsChecker
from repro.service import AnalysisEngine, EngineError, program_hash, protocol
from repro.synth import PackageSpec, generate_package

#: Every property the flat core serves.
FLAT_PROPERTIES = sorted(
    name
    for name, factory in PROPERTY_FACTORIES.items()
    if not factory().parametric_symbols
)

VULNERABLE = textwrap.dedent(
    """
    void drop() {
      seteuid(getuid());
    }
    int main() {
      seteuid(0);
      execl("/bin/sh");
      drop();
      return 0;
    }
    """
)

FILE_PROGRAM = 'int main() { int fd = open("a"); close(fd); close(fd); return 0; }'


def only_solver(engine: AnalysisEngine):
    (entry,) = engine._solved.values()
    return entry.solver


def object_core_response(program: str, name: str) -> dict:
    """The response the service gives, built on the object core."""
    prop = PROPERTY_FACTORIES[name]()
    checker = AnnotatedChecker(build_cfg(program), prop, record_reasons=False)
    assert type(checker.solver) is Solver
    result = checker.check()
    return {
        "property": name,
        "fingerprint": machine_fingerprint(prop.machine),
        "program": program_hash(program),
        "has_violation": result.has_violation,
        "violations": [
            {
                "where": v.node.describe(),
                "line": v.node.line,
                "instantiation": None,
                "trace": [],
            }
            for v in result.violations
        ],
        "constraints": result.constraints,
        "facts": result.facts,
    }


class TestCoreChoice:
    def test_rule(self):
        plain = PROPERTY_FACTORIES["simple-privilege"]()
        parametric = PROPERTY_FACTORIES["file-state"]()
        assert uses_flat_core(plain, traces=False)
        assert not uses_flat_core(plain, traces=True)
        assert not uses_flat_core(parametric, traces=False)

    def test_no_traces_check_solves_snapshots_and_loads_flat(self, tmp_path):
        cold = AnalysisEngine(snapshot_dir=tmp_path)
        expected = cold.check(VULNERABLE, "simple-privilege")
        assert isinstance(only_solver(cold), FlatSolver)
        (snapshot,) = tmp_path.iterdir()
        assert '"core":"flat"' in read_snapshot(snapshot)
        warm = AnalysisEngine(snapshot_dir=tmp_path)
        assert warm.check(VULNERABLE, "simple-privilege") == expected
        assert warm.metrics.get("cache.snapshot.warm") == 1
        assert isinstance(only_solver(warm), FlatSolver)

    def test_traces_keep_the_object_core(self):
        engine = AnalysisEngine()
        engine.check(VULNERABLE, "simple-privilege", traces=True)
        solver = only_solver(engine)
        assert type(solver) is Solver
        assert solver.record_reasons

    def test_parametric_property_keeps_the_object_core(self):
        engine = AnalysisEngine()
        assert engine.check(FILE_PROGRAM, "file-state")["has_violation"]
        assert type(only_solver(engine)) is Solver


class TestWarmConstraints:
    def test_warm_response_equals_cold(self, tmp_path):
        program = generate_package(PackageSpec("x", 300, 8, seed=3))
        cold = AnalysisEngine(snapshot_dir=tmp_path).check(
            program, "simple-privilege"
        )
        warm_engine = AnalysisEngine(snapshot_dir=tmp_path)
        warm = warm_engine.check(program, "simple-privilege")
        assert warm_engine.metrics.get("cache.snapshot.warm") == 1
        assert cold["constraints"] > 0
        assert warm == cold


class TestObjectSnapshot:
    def test_object_core_snapshot_still_warm_loads(self, tmp_path):
        # Snapshot directories written before the flat core served the
        # service hold object-core dumps: they load on the object core.
        engine = AnalysisEngine(snapshot_dir=tmp_path)
        expected = engine.check(VULNERABLE, "simple-privilege")
        (snapshot,) = tmp_path.iterdir()
        prop = PROPERTY_FACTORIES["simple-privilege"]()
        legacy = AnnotatedChecker(
            build_cfg(VULNERABLE),
            prop,
            algebra=CompiledMonoidAlgebra(prop.machine),
            record_reasons=False,
        )
        write_snapshot(snapshot, dump_solver(legacy.solver))
        assert '"core":"object"' in read_snapshot(snapshot)
        fresh = AnalysisEngine(snapshot_dir=tmp_path)
        assert fresh.check(VULNERABLE, "simple-privilege") == expected
        assert fresh.metrics.get("cache.snapshot.warm") == 1
        assert type(only_solver(fresh)) is Solver


class TestCheckpointSnapshot:
    def test_flat_checkpoint_resumes_on_warm_load(self, tmp_path):
        engine = AnalysisEngine(snapshot_dir=tmp_path)
        expected = engine.check(VULNERABLE, "simple-privilege")
        (snapshot,) = tmp_path.iterdir()
        # An interrupted flat solve, dumped with its pending worklist.
        interrupted = AnnotatedChecker.__new__(AnnotatedChecker)
        with pytest.raises(SolverBudgetExceeded):
            interrupted.__init__(
                build_cfg(VULNERABLE),
                PROPERTY_FACTORIES["simple-privilege"](),
                flat=True,
                budget=Budget(max_steps=5, check_interval=1),
            )
        assert interrupted.solver.pending_count() > 0
        write_snapshot(snapshot, dump_solver(interrupted.solver))
        fresh = AnalysisEngine(snapshot_dir=tmp_path)
        assert fresh.check(VULNERABLE, "simple-privilege") == expected
        assert fresh.metrics.get("cache.snapshot.warm") == 1
        solver = only_solver(fresh)
        assert isinstance(solver, FlatSolver)
        assert solver.pending_count() == 0


class TestCancellation:
    PARAMS = {"program": VULNERABLE, "property": "simple-privilege"}

    def test_cancelled_flat_solve_refuses_then_retry_solves(self):
        engine = AnalysisEngine()
        token = CancellationToken()
        token.cancel()
        with pytest.raises(EngineError) as err:
            engine.dispatch("check", dict(self.PARAMS), budget=Budget(token=token))
        assert err.value.code == protocol.E_CANCELLED
        assert engine.metrics.get("solve.cancelled") == 1
        retry = engine.dispatch(
            "check", dict(self.PARAMS), budget=Budget(token=CancellationToken())
        )
        assert retry == AnalysisEngine().check(VULNERABLE, "simple-privilege")
        assert isinstance(only_solver(engine), FlatSolver)
        assert engine.metrics.get("cache.solve.misses") == 2


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    lines=st.integers(min_value=40, max_value=160),
    functions=st.integers(min_value=2, max_value=6),
    violation=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_cross_core_oracle(seed, lines, functions, violation):
    program = generate_package(
        PackageSpec(
            "oracle",
            lines,
            functions,
            seed=seed,
            violation=violation,
            event_density=0.08,
        )
    )
    cfg = build_cfg(program)
    with tempfile.TemporaryDirectory() as snapshot_dir:
        for name in FLAT_PROPERTIES:
            expected = object_core_response(program, name)
            cold = AnalysisEngine(snapshot_dir=snapshot_dir)
            assert cold.check(program, name) == expected
            assert isinstance(only_solver(cold), FlatSolver)
            warm = AnalysisEngine(snapshot_dir=snapshot_dir)
            assert warm.check(program, name) == expected
            assert warm.metrics.get("cache.snapshot.warm") == 1
            errors = MopsChecker(cfg, PROPERTY_FACTORIES[name]()).check()
            assert sorted(v["where"] for v in expected["violations"]) == sorted(
                node.describe() for node in errors.error_nodes
            )
