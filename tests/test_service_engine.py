"""Tests for the cached analysis engine (facade, warm-start, what-if)."""

import textwrap

import pytest

from repro.cfg import build_cfg
from repro.modelcheck import AnnotatedChecker, simple_privilege_property
from repro.service import AnalysisEngine, EngineError
from repro.service import protocol

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

CLEAN = textwrap.dedent(
    """
    int main() {
      seteuid(0);
      seteuid(getuid());
      execl("/bin/sh");
      return 0;
    }
    """
)

FIG11 = """
pair(y : int) : b = (1@A, y@Y)@P;
main() : int = (pair^i(2@B)).2@V;
"""


class TestCheckCaching:
    def test_matches_direct_checker(self):
        engine = AnalysisEngine()
        result = engine.check(VULNERABLE, "simple-privilege")
        direct = AnnotatedChecker(
            build_cfg(VULNERABLE), simple_privilege_property()
        ).check()
        assert result["has_violation"] == direct.has_violation
        assert {v["line"] for v in result["violations"]} == direct.violation_lines()

    def test_repeat_hits_cache(self):
        engine = AnalysisEngine()
        first = engine.check(VULNERABLE, "simple-privilege")
        second = engine.check(VULNERABLE, "simple-privilege")
        assert first == second
        assert engine.metrics.get("cache.solve.misses") == 1
        assert engine.metrics.get("cache.solve.hits") == 1

    def test_different_programs_share_compiled_machine(self):
        engine = AnalysisEngine()
        engine.check(VULNERABLE, "simple-privilege")
        machine_misses = engine.metrics.get("cache.machine.misses")
        engine.check(CLEAN, "simple-privilege")
        # second program: solve cache miss, but no new machine compile
        assert engine.metrics.get("cache.solve.misses") == 2
        assert engine.metrics.get("cache.machine.misses") == machine_misses
        assert engine.metrics.get("cache.machine.hits") > 0

    def test_clean_program(self):
        engine = AnalysisEngine()
        result = engine.check(CLEAN, "simple-privilege")
        assert not result["has_violation"]
        assert result["violations"] == []

    def test_unknown_property(self):
        engine = AnalysisEngine()
        with pytest.raises(EngineError) as err:
            engine.check(VULNERABLE, "no-such-property")
        assert err.value.code == protocol.E_UNSUPPORTED

    def test_parse_error(self):
        engine = AnalysisEngine()
        with pytest.raises(EngineError) as err:
            engine.check("int main( {", "simple-privilege")
        assert err.value.code == protocol.E_PARSE

    def test_parametric_property_served(self):
        program = textwrap.dedent(
            """
            int main() {
              int fd = open("a");
              close(fd);
              close(fd);
              return 0;
            }
            """
        )
        engine = AnalysisEngine()
        result = engine.check(program, "file-state")
        assert result["has_violation"]
        assert any(
            v["instantiation"] == {"x": "fd"} for v in result["violations"]
        )

    def test_max_findings_truncates(self):
        engine = AnalysisEngine()
        full = engine.check(VULNERABLE, "simple-privilege")
        truncated = engine.check(VULNERABLE, "simple-privilege", max_findings=1)
        assert len(full["violations"]) > 1
        assert len(truncated["violations"]) == 1

    def test_lru_eviction(self):
        engine = AnalysisEngine(cache_size=1)
        engine.check(VULNERABLE, "simple-privilege")
        engine.check(CLEAN, "simple-privilege")
        assert engine.metrics.get("cache.solve.evictions") == 1
        # evicted entry re-solves
        engine.check(VULNERABLE, "simple-privilege")
        assert engine.metrics.get("cache.solve.misses") == 3


class TestSnapshotWarmStart:
    def test_warm_start_equivalent(self, tmp_path):
        cold_engine = AnalysisEngine(snapshot_dir=tmp_path)
        cold = cold_engine.check(VULNERABLE, "simple-privilege")
        assert cold_engine.metrics.get("cache.snapshot.saved") == 1

        warm_engine = AnalysisEngine(snapshot_dir=tmp_path)
        warm = warm_engine.check(VULNERABLE, "simple-privilege")
        assert warm_engine.metrics.get("cache.snapshot.warm") == 1
        assert warm["has_violation"] == cold["has_violation"]
        assert {v["line"] for v in warm["violations"]} == {
            v["line"] for v in cold["violations"]
        }

    def test_corrupt_snapshot_falls_back_to_cold(self, tmp_path):
        engine = AnalysisEngine(snapshot_dir=tmp_path)
        engine.check(VULNERABLE, "simple-privilege")
        (snapshot,) = list(tmp_path.iterdir())
        snapshot.write_text("{definitely not json")
        fresh = AnalysisEngine(snapshot_dir=tmp_path)
        result = fresh.check(VULNERABLE, "simple-privilege")
        assert result["has_violation"]
        assert fresh.metrics.get("cache.snapshot.warm") == 0

    def test_restarted_engine_returns_the_same_traces(self, tmp_path):
        # A snapshot carries no provenance: a traces request must solve
        # with provenance instead of answering from one.
        program = 'int main() { seteuid(0); execl("/bin/sh"); return 0; }'
        fresh = AnalysisEngine(snapshot_dir=tmp_path)
        fresh.check(program, "simple-privilege")
        expected = fresh.check(program, "simple-privilege", traces=True)
        assert expected["violations"]
        assert all(v["trace"] for v in expected["violations"])
        restarted = AnalysisEngine(snapshot_dir=tmp_path)
        assert restarted.check(program, "simple-privilege", traces=True) == expected
        assert restarted.metrics.get("cache.snapshot.warm") == 0
        # the no-traces answer still comes from the snapshot
        plain = restarted.check(program, "simple-privilege")
        assert restarted.metrics.get("cache.snapshot.warm") == 1
        assert all(v["trace"] == [] for v in plain["violations"])

    def test_no_traces_solve_records_no_provenance(self):
        engine = AnalysisEngine()
        engine.check(VULNERABLE, "simple-privilege")
        engine.check(VULNERABLE, "simple-privilege", traces=True)
        solvers = {key[3]: entry.solver for key, entry in engine._solved.items()}
        assert solvers[False].record_reasons is False
        assert solvers[True].record_reasons is True

    def test_parametric_not_snapshotted(self, tmp_path):
        program = 'int main() { int fd = open("a"); close(fd); close(fd); return 0; }'
        engine = AnalysisEngine(snapshot_dir=tmp_path)
        engine.check(program, "file-state")
        assert list(tmp_path.iterdir()) == []


class TestDataflow:
    def test_result_shape(self):
        engine = AnalysisEngine()
        result = engine.dataflow(VULNERABLE, ["seteuid", "execl"])
        assert result["facts"] == ["seteuid", "execl"]
        by_line = {node["line"]: node["may_hold"] for node in result["nodes"]}
        # by the execl call, seteuid has definitely been called
        assert any("seteuid" in held for held in by_line.values())

    def test_cache_key_includes_track(self):
        engine = AnalysisEngine()
        engine.dataflow(VULNERABLE, ["seteuid"])
        engine.dataflow(VULNERABLE, ["execl"])
        assert engine.metrics.get("cache.solve.misses") == 2
        engine.dataflow(VULNERABLE, ["seteuid"])
        assert engine.metrics.get("cache.solve.hits") == 1

    def test_empty_track_rejected(self):
        engine = AnalysisEngine()
        with pytest.raises(EngineError) as err:
            engine.dataflow(VULNERABLE, [])
        assert err.value.code == protocol.E_BAD_REQUEST


class TestFlowAndWhatIf:
    def test_flow_query(self):
        engine = AnalysisEngine()
        result = engine.flow(FIG11, query=["B", "V"])
        assert result["flows"] is True
        assert engine.flow(FIG11, query=["A", "V"])["flows"] is False

    def test_flow_pairs(self):
        engine = AnalysisEngine()
        result = engine.flow(FIG11)
        assert ["B", "V"] in result["pairs"]
        assert ["A", "V"] not in result["pairs"]

    def test_what_if_layers_and_rolls_back(self):
        engine = AnalysisEngine()
        base = engine.flow(FIG11, query=["A", "V"])
        assert base["flows"] is False
        speculative = engine.flow(FIG11, query=["A", "V"], assume=[["A", "B"]])
        assert speculative["flows"] is True
        # the speculative constraints were retracted: base answer intact
        after = engine.flow(FIG11, query=["A", "V"])
        assert after["flows"] is False
        assert engine.metrics.get("whatif.queries") == 1
        stats = engine.stats()
        assert stats["solver"]["rollbacks"] == 1
        # the what-if reused the solved system instead of re-solving
        assert engine.metrics.get("cache.solve.misses") == 1

    def test_assume_requires_query(self):
        engine = AnalysisEngine()
        with pytest.raises(EngineError) as err:
            engine.flow(FIG11, assume=[["A", "B"]])
        assert err.value.code == protocol.E_BAD_REQUEST

    def test_unknown_label(self):
        engine = AnalysisEngine()
        with pytest.raises(EngineError) as err:
            engine.flow(FIG11, query=["Nope", "V"])
        assert err.value.code == protocol.E_BAD_REQUEST

    def test_flow_parse_error(self):
        engine = AnalysisEngine()
        with pytest.raises(EngineError) as err:
            engine.flow("main() : int = $$$;")
        assert err.value.code == protocol.E_PARSE


class TestStats:
    def test_shape(self):
        engine = AnalysisEngine()
        engine.check(VULNERABLE, "simple-privilege")
        stats = engine.stats()
        assert stats["protocol"] == protocol.PROTOCOL_VERSION
        assert stats["cache"]["entries"] == 1
        assert stats["solver"]["edges_added"] > 0
        assert stats["solver"]["compositions"] > 0
        assert stats["counters"]["cache.solve.misses"] == 1
        assert stats["timers"]["solve"]["count"] == 1

    def test_dispatch_routes_all_ops(self):
        engine = AnalysisEngine()
        assert engine.dispatch("ping", {})["pong"] is True
        assert "counters" in engine.dispatch("stats", {})
        assert engine.dispatch(
            "check", {"program": CLEAN, "property": "simple-privilege"}
        )["has_violation"] is False
        assert engine.dispatch(
            "dataflow", {"program": CLEAN, "track": ["seteuid"]}
        )["facts"] == ["seteuid"]
        assert engine.dispatch("flow", {"program": FIG11})["pairs"]
