"""Tests for the service's ``patch`` request (differential re-check).

Covers the engine's hot-session lifecycle (cold-start, patched,
base-mismatch, patch-failed), the wire protocol plumbing, the TCP
client method, and the mid-patch crash fault proving the cold-solve
fallback leaves no wrong answers behind.
"""

import pytest

from repro.modelcheck.properties import simple_privilege_property
from repro.incremental import StableCheck
from repro.service import (
    AnalysisEngine,
    AnalysisServer,
    EngineError,
    ServiceClient,
)
from repro.service import protocol
from repro.synth import PackageSpec, edit_stream
from repro.testing.faults import FaultError, FaultInjector

SPEC = PackageSpec("svc-inc", 420, 8, seed=13)


@pytest.fixture(scope="module")
def steps():
    return list(edit_stream(SPEC, 3))


def cold_verdict(source):
    return StableCheck(source, simple_privilege_property()).has_violation()


class TestEnginePatch:
    def test_first_request_cold_starts(self, steps):
        engine = AnalysisEngine()
        result = engine.patch(steps[0].source, "simple-privilege")
        assert result["patched"] is False
        assert result["fallback"] == "cold-start"
        assert result["base"] is None
        assert result["patch"] is None
        assert result["has_violation"] == cold_verdict(steps[0].source)

    def test_second_request_patches(self, steps):
        engine = AnalysisEngine()
        r0 = engine.patch(steps[0].source, "simple-privilege")
        r1 = engine.patch(
            steps[1].source, "simple-privilege", base=r0["version"]
        )
        assert r1["patched"] is True
        assert r1["fallback"] is None
        assert r1["base"] == r0["version"]
        assert r1["patch"]["retracted_constraints"] >= 0
        assert r1["has_violation"] == cold_verdict(steps[1].source)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["patch.applied"] == 1
        assert counters["patch.fallback.cold-start"] == 1

    def test_base_mismatch_falls_back_cold(self, steps):
        engine = AnalysisEngine()
        engine.patch(steps[0].source, "simple-privilege")
        result = engine.patch(
            steps[1].source, "simple-privilege", base="not-the-version"
        )
        assert result["patched"] is False
        assert result["fallback"] == "base-mismatch"
        assert result["has_violation"] == cold_verdict(steps[1].source)
        # the rebuilt session is hot again
        follow = engine.patch(
            steps[2].source, "simple-privilege", base=result["version"]
        )
        assert follow["patched"] is True

    def test_no_base_patches_from_whatever_is_hot(self, steps):
        engine = AnalysisEngine()
        engine.patch(steps[0].source, "simple-privilege")
        result = engine.patch(steps[2].source, "simple-privilege")
        assert result["patched"] is True

    def test_same_program_is_empty_patch(self, steps):
        engine = AnalysisEngine()
        r0 = engine.patch(steps[0].source, "simple-privilege")
        r1 = engine.patch(
            steps[0].source, "simple-privilege", base=r0["version"]
        )
        assert r1["patched"] is True
        assert r1["patch"]["added_constraints"] == 0
        assert r1["patch"]["retracted_constraints"] == 0

    def test_parse_error_leaves_session_intact(self, steps):
        engine = AnalysisEngine()
        r0 = engine.patch(steps[0].source, "simple-privilege")
        with pytest.raises(EngineError) as excinfo:
            engine.patch("void broken( {", "simple-privilege")
        assert excinfo.value.code == protocol.E_PARSE
        r1 = engine.patch(
            steps[1].source, "simple-privilege", base=r0["version"]
        )
        assert r1["patched"] is True

    def test_program_without_main_is_a_parse_error(self, steps, tmp_path):
        """Refused up front like a parse error: nothing is journaled, the
        hot session survives, and no op answers ``internal-error``."""
        no_main = "int f() { return 0; }"
        engine = AnalysisEngine(journal_dir=tmp_path)
        try:
            r0 = engine.patch(steps[0].source, "simple-privilege")
            journaled = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            requests = [
                lambda: engine.patch(no_main, "simple-privilege", base=r0["version"]),
                lambda: engine.check(no_main, "simple-privilege"),
                lambda: engine.dataflow(no_main, ["seteuid"]),
            ]
            for request in requests:
                with pytest.raises(EngineError) as excinfo:
                    request()
                assert excinfo.value.code == protocol.E_PARSE
                assert excinfo.value.message == "program has no main function"
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == journaled
            r1 = engine.patch(
                steps[1].source, "simple-privilege", base=r0["version"]
            )
            assert r1["patched"] is True
            assert r1["fallback"] is None
        finally:
            engine.close()

    def test_parametric_property_unsupported(self, steps):
        engine = AnalysisEngine()
        with pytest.raises(EngineError) as excinfo:
            engine.patch(steps[0].source, "file-state")
        assert excinfo.value.code == protocol.E_UNSUPPORTED

    def test_unknown_property(self, steps):
        engine = AnalysisEngine()
        with pytest.raises(EngineError) as excinfo:
            engine.patch(steps[0].source, "no-such-property")
        assert excinfo.value.code == protocol.E_UNSUPPORTED

    def test_bad_base_type_rejected(self, steps):
        engine = AnalysisEngine()
        with pytest.raises(EngineError) as excinfo:
            engine.dispatch(
                "patch",
                {
                    "program": steps[0].source,
                    "property": "simple-privilege",
                    "base": 7,
                },
            )
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_stats_expose_patch_sessions_and_counters(self, steps):
        engine = AnalysisEngine()
        r0 = engine.patch(steps[0].source, "simple-privilege")
        engine.patch(steps[1].source, "simple-privilege", base=r0["version"])
        stats = engine.stats()
        assert stats["cache"]["patch_sessions"] == 1
        solver_stats = stats["solver"]
        assert solver_stats["facts_retracted"] > 0
        assert solver_stats["facts_rederived"] >= 0
        assert solver_stats["cone_size"] >= solver_stats["facts_retracted"]


class TestMidPatchCrash:
    """The fault-injection seam: a crash between over-deletion and
    re-derivation must never leak a half-repaired solved form."""

    def test_crash_surfaces_to_raw_callers(self, steps):
        check = StableCheck(steps[0].source, simple_privilege_property())
        injector = FaultInjector(seed=3)
        with injector.crash_during_patch():
            with pytest.raises(FaultError):
                check.apply_source(steps[1].source)

    def test_engine_falls_back_cold_and_recovers(self, steps):
        engine = AnalysisEngine()
        r0 = engine.patch(steps[0].source, "simple-privilege")
        injector = FaultInjector(seed=3)
        with injector.crash_during_patch():
            crashed = engine.patch(
                steps[1].source, "simple-privilege", base=r0["version"]
            )
        assert crashed["patched"] is False
        assert crashed["fallback"] == "patch-failed"
        # the fallback answer is the cold answer, not the torn state
        cold = StableCheck(steps[1].source, simple_privilege_property())
        assert crashed["has_violation"] == cold.has_violation()
        assert crashed["facts"] == cold.solver.fact_count()
        counters = engine.metrics.snapshot()["counters"]
        assert counters["patch.fallback.patch-failed"] == 1
        # and the rebuilt session patches normally afterwards
        follow = engine.patch(
            steps[2].source, "simple-privilege", base=crashed["version"]
        )
        assert follow["patched"] is True


class TestPatchOverTcp:
    def test_client_patch_chain(self, steps):
        with AnalysisServer(AnalysisEngine(), workers=2) as server:
            host, port = server.start_tcp()
            with ServiceClient(host, port) as client:
                r0 = client.patch(steps[0].source, "simple-privilege")
                assert r0["fallback"] == "cold-start"
                r1 = client.patch(
                    steps[1].source, "simple-privilege", base=r0["version"]
                )
                assert r1["patched"] is True
                stats = client.stats()
                assert stats["counters"]["patch.applied"] == 1

    def test_protocol_requires_program_and_property(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode_request(
                '{"v": 1, "id": 1, "op": "patch", "params": {"program": "x"}}'
            )
        assert excinfo.value.code == protocol.E_BAD_REQUEST
