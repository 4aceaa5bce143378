"""Crash-recovery tests: journal replay equivalence and quarantine.

Three layers:

* a Hypothesis suite proving recovery-then-patch reaches the same
  canonical solved form (and verdict) as cold solves across the solver
  feature matrix — object/compiled/flat cores, cycle elimination on and
  off;
* a kill-and-restart engine test for **every** quarantine slug,
  crafting the exact on-disk damage each slug guards against and
  asserting the typed cold fallback;
* a subprocess test that ``kill -9``s a live ``repro serve`` process
  mid-patch-stream and proves the restarted service restores the hot
  session exactly (patching from the last acknowledged base succeeds
  and agrees with a cold solve).

``REPRO_FAULT_SEED`` varies the synthetic workloads; CI runs this file
under several seeds.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cfg.builder import build_cfg
from repro.core.annotations import MonoidAlgebra
from repro.core.persist import (
    JOURNAL_MAGIC,
    frame_journal_record,
    read_snapshot,
    write_snapshot,
    write_solver_snapshot,
)
from repro.incremental import StableCheck
from repro.modelcheck import AnnotatedChecker, simple_privilege_property
from repro.service import (
    AnalysisEngine,
    QUARANTINE_SLUGS,
    ServiceClient,
    SessionJournal,
    program_hash,
)
from repro.service.journal import JournalLineage
from repro.synth import PackageSpec, edit_stream
from repro.testing import FaultInjector

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

PROP_NAME = "simple-privilege"

P1 = "void main() {\n  seteuid(0);\n  execl();\n  seteuid(getuid());\n}\n"
P2 = "void main() {\n  seteuid(0);\n  seteuid(getuid());\n  execl();\n}\n"
P3 = "void main() {\n  seteuid(getuid());\n  execl();\n}\n"


def cold_result(source):
    engine = AnalysisEngine()
    return engine.patch(source, PROP_NAME)


def assert_same_verdict(result, expected):
    for field in ("has_violation", "violations", "facts"):
        assert result[field] == expected[field]


# ---------------------------------------------------------------------------
# recovery-then-patch ≡ cold solve, across the feature matrix
# ---------------------------------------------------------------------------


class TestRecoveryEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_edits=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=6, deadline=None)
    def test_recovered_session_matches_cold_solves(self, seed, n_edits):
        spec = PackageSpec("recov", 160, 5, seed=seed + SEED * 7919)
        steps = list(edit_stream(spec, n_edits + 1))
        final = steps[-1].source
        with tempfile.TemporaryDirectory() as d:
            engine = AnalysisEngine(journal_dir=d)
            r = engine.patch(steps[0].source, PROP_NAME)
            for step in steps[1:-1]:
                r = engine.patch(step.source, PROP_NAME, base=r["version"])
            engine.close()  # crash point: journal only, no checkpoint

            fresh = AnalysisEngine(journal_dir=d)
            assert fresh.recoveries == 1
            result = fresh.patch(final, PROP_NAME, base=r["version"])
            assert result["patched"] is True
            assert result["fallback"] is None
            fp = result["fingerprint"]
            recovered = set(
                fresh._delta[fp].check.solver.canonical_facts()
            )
            fresh.close()

        prop = simple_privilege_property()
        # same encoder + compiled algebra: canonical forms must coincide
        # exactly, with cycle elimination both on and off
        for cycle_elim in (True, False):
            cold = StableCheck(final, prop, cycle_elim=cycle_elim)
            assert set(cold.solver.canonical_facts()) == recovered
            assert cold.has_violation() == result["has_violation"]
        # object (uncompiled) and flat cores answer through different
        # encoders; the verdict is the cross-implementation oracle
        assert (
            StableCheck(
                final, prop, algebra=MonoidAlgebra(prop.machine)
            ).has_violation()
            == result["has_violation"]
        )
        cfg = build_cfg(final)
        for cycle_elim in (True, False):
            flat = AnnotatedChecker(cfg, prop, flat=True, cycle_elim=cycle_elim)
            assert flat.has_violation() == result["has_violation"]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=4, deadline=None)
    def test_checkpointed_session_recovers_identically(self, seed):
        """Drain-style checkpoint (compaction) then restart: the oracle
        snapshot verifies and the session is immediately patchable."""
        spec = PackageSpec("recov-ckpt", 160, 5, seed=seed)
        steps = list(edit_stream(spec, 2))
        with tempfile.TemporaryDirectory() as d:
            engine = AnalysisEngine(journal_dir=d)
            r = engine.patch(steps[0].source, PROP_NAME)
            r = engine.patch(steps[1].source, PROP_NAME, base=r["version"])
            assert engine.checkpoint_sessions() == 1
            engine.close()

            fresh = AnalysisEngine(journal_dir=d)
            assert fresh.recoveries == 1
            assert fresh.metrics.get("journal.quarantined") == 0
            result = fresh.patch(
                steps[2].source, PROP_NAME, base=r["version"]
            )
            assert result["patched"] is True
            fresh.close()
        cold = cold_result(steps[2].source)
        assert_same_verdict(result, cold)


# ---------------------------------------------------------------------------
# kill-and-restart for every quarantine slug
# ---------------------------------------------------------------------------


def _craft_torn_record(tmp_path, fp):
    FaultInjector(SEED).tear_journal_tail(tmp_path / f"{fp}.wal")


def _craft_corrupt_record(tmp_path, fp):
    FaultInjector(SEED).corrupt_journal_record(
        tmp_path / f"{fp}.wal", record=0
    )


def _craft_missing_base(tmp_path, fp):
    record = frame_journal_record(
        {
            "kind": "patch",
            "seq": 1,
            "base": "a",
            "version": program_hash(P1),
            "source": P1,
            "key": None,
        }
    )
    (tmp_path / f"{fp}.wal").write_bytes(
        JOURNAL_MAGIC.encode("ascii") + b"\n" + record
    )


def _craft_bad_lineage(tmp_path, fp):
    base = frame_journal_record(
        {
            "kind": "base",
            "fingerprint": fp,
            "property": PROP_NAME,
            "version": program_hash(P1),
            "source": P1,
            "snapshot": None,
        }
    )
    patch = frame_journal_record(
        {
            "kind": "patch",
            "seq": 1,
            "base": "not-the-base-version",
            "version": program_hash(P2),
            "source": P2,
            "key": None,
        }
    )
    (tmp_path / f"{fp}.wal").write_bytes(
        JOURNAL_MAGIC.encode("ascii") + b"\n" + base + patch
    )


def _craft_replay_failed(tmp_path, fp):
    broken = "void main( {\n  this does not parse\n"
    base = frame_journal_record(
        {
            "kind": "base",
            "fingerprint": fp,
            "property": PROP_NAME,
            "version": program_hash(broken),
            "source": broken,
            "snapshot": None,
        }
    )
    (tmp_path / f"{fp}.wal").write_bytes(
        JOURNAL_MAGIC.encode("ascii") + b"\n" + base
    )


def _craft_snapshot_mismatch(tmp_path, fp):
    # the checkpointed session holds P2; swap its oracle snapshot for a
    # solve of an unrelated program
    lineage = SessionJournal(tmp_path).load(fp)
    assert isinstance(lineage, JournalLineage)
    assert lineage.snapshot is not None
    other = StableCheck(P3, simple_privilege_property())
    write_solver_snapshot(tmp_path / lineage.snapshot, other.solver)


CRAFTERS = {
    "torn-record": _craft_torn_record,
    "corrupt-record": _craft_corrupt_record,
    "missing-base": _craft_missing_base,
    "bad-lineage": _craft_bad_lineage,
    "replay-failed": _craft_replay_failed,
    "snapshot-mismatch": _craft_snapshot_mismatch,
}


class TestQuarantineSlugs:
    def test_every_slug_has_a_kill_restart_test(self):
        assert set(CRAFTERS) == set(QUARANTINE_SLUGS)

    @pytest.mark.parametrize("slug", QUARANTINE_SLUGS)
    def test_kill_restart_quarantines_and_falls_back_cold(
        self, tmp_path, slug
    ):
        # a real session dies (close() without checkpoint ~ crash), then
        # the slug's exact damage lands on its journal
        engine = AnalysisEngine(
            journal_dir=tmp_path,
            journal_compact_every=(
                1 if slug == "snapshot-mismatch" else 256
            ),
        )
        r1 = engine.patch(P1, PROP_NAME)
        r2 = engine.patch(P2, PROP_NAME, base=r1["version"])
        engine.close()
        fp = r2["fingerprint"]
        CRAFTERS[slug](tmp_path, fp)

        fresh = AnalysisEngine(journal_dir=tmp_path)
        assert fresh.recoveries == 0
        assert fresh._quarantined == {fp: slug}
        assert fresh.metrics.get(f"journal.quarantined.{slug}") == 1
        result = fresh.patch(P2, PROP_NAME, base=r2["version"])
        assert result["fallback"] == f"quarantined-{slug}"
        assert result["patched"] is False
        assert_same_verdict(result, cold_result(P2))
        # quarantine is one-shot: the session is healthy again
        follow = fresh.patch(P3, PROP_NAME, base=result["version"])
        assert follow["patched"] is True
        assert_same_verdict(follow, cold_result(P3))
        fresh.close()

    @pytest.mark.parametrize("damage", ["format-3", "headerless"])
    def test_refused_oracle_snapshot_still_recovers(self, tmp_path, damage):
        # The base source is authoritative: a compaction snapshot the
        # loader refuses is no oracle, not a reason to quarantine.
        engine = AnalysisEngine(journal_dir=tmp_path, journal_compact_every=1)
        r1 = engine.patch(P1, PROP_NAME)
        r2 = engine.patch(P2, PROP_NAME, base=r1["version"])
        engine.close()
        fp = r2["fingerprint"]
        journal = SessionJournal(tmp_path)
        lineage = journal.load(fp)
        assert lineage.snapshot is not None
        path = tmp_path / lineage.snapshot
        payload = read_snapshot(path)
        if damage == "format-3":
            data = json.loads(payload)
            data["version"] = 3
            write_snapshot(path, json.dumps(data))
        else:
            path.write_text(payload)
        assert journal.read_snapshot_oracle(lineage) is None

        fresh = AnalysisEngine(journal_dir=tmp_path)
        assert fresh.recoveries == 1
        assert fresh._quarantined == {}
        assert fresh.metrics.get("journal.quarantined") == 0
        result = fresh.patch(P3, PROP_NAME, base=r2["version"])
        assert result["patched"] is True
        assert result["fallback"] is None
        recovered = set(fresh._delta[fp].check.solver.canonical_facts())
        fresh.close()
        cold = StableCheck(P3, simple_privilege_property())
        assert recovered == set(cold.solver.canonical_facts())
        assert_same_verdict(result, cold_result(P3))

    def test_quarantine_preserves_evidence_file(self, tmp_path):
        engine = AnalysisEngine(journal_dir=tmp_path)
        r1 = engine.patch(P1, PROP_NAME)
        engine.close()
        fp = r1["fingerprint"]
        _craft_bad_lineage(tmp_path, fp)
        fresh = AnalysisEngine(journal_dir=tmp_path)
        assert (tmp_path / f"{fp}.wal.quarantined").exists()
        assert not (tmp_path / f"{fp}.wal").exists()
        fresh.close()


# ---------------------------------------------------------------------------
# kill -9 a live server mid-patch-stream
# ---------------------------------------------------------------------------


def _spawn_server(journal_dir):
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--journal-dir",
            str(journal_dir),
            "--workers",
            "2",
        ],
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    port = None
    recovered = 0
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        if "recovered" in line:
            recovered = int(line.split("recovered", 1)[1].split()[0])
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        raise AssertionError("server never reported its port")
    return proc, port, recovered


@pytest.mark.slow
class TestKillDashNine:
    def test_restart_restores_hot_session_exactly(self, tmp_path):
        spec = PackageSpec("kill9", 200, 6, seed=SEED + 1)
        steps = list(edit_stream(spec, 3))
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()

        proc, port, recovered = _spawn_server(journal_dir)
        assert recovered == 0
        try:
            client = ServiceClient("127.0.0.1", port, retries=2, backoff=0.05)
            r = client.patch(steps[0].source, PROP_NAME)
            for step in steps[1:3]:
                r = client.patch(step.source, PROP_NAME, base=r["version"])
            assert r["fallback"] in (None, "cold-start") or r["patched"]
            client.close()
        finally:
            # mid-patch-stream: the next edit never gets sent — the
            # process dies with only the journal to show for its state
            proc.kill()  # SIGKILL
            proc.wait(timeout=10)
        assert proc.returncode == -signal.SIGKILL

        proc2, port2, recovered = _spawn_server(journal_dir)
        try:
            assert recovered == 1
            client = ServiceClient(
                "127.0.0.1", port2, retries=2, backoff=0.05
            )
            result = client.patch(
                steps[3].source, PROP_NAME, base=r["version"]
            )
            assert result["patched"] is True
            assert result["fallback"] is None
            stats = client.stats()
            assert stats["recoveries"] == 1
            assert stats["uptime_s"] >= 0
            client.close()
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc2.kill()
                proc2.wait(timeout=10)
        assert proc2.returncode == 0
        assert_same_verdict(result, cold_result(steps[3].source))

    def test_sigterm_drains_and_checkpoints(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        proc, port, _ = _spawn_server(journal_dir)
        client = ServiceClient("127.0.0.1", port, retries=2, backoff=0.05)
        client.patch(P1, PROP_NAME)
        client.close()
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=15)
        assert proc.returncode == 0
        stderr = proc.stderr.read()
        assert "draining" in stderr
        assert "1 session(s) checkpointed" in stderr
        # the checkpoint rotated the journal down to a single base record
        fp = cold_result(P1)["fingerprint"]
        lineage = SessionJournal(journal_dir).load(fp)
        assert isinstance(lineage, JournalLineage)
        assert lineage.patches == []
