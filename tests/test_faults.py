"""Fault-injection tests: budgets, cancellation, crash-safe snapshots,
server resource governance, and client retry.

Every randomized corruption flows from one seed so failures replay
exactly; CI runs this file under several seeds via the
``REPRO_FAULT_SEED`` environment variable (default 0).
"""

import json
import os
import textwrap
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Budget,
    CancellationToken,
    SnapshotCorrupt,
    SolverBudgetExceeded,
    SolverCancelled,
)
from repro.core.annotations import CompiledMonoidAlgebra, MonoidAlgebra
from repro.core.persist import dump_solver, load_solver, read_snapshot, write_snapshot
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable
from repro.dfa.gallery import privilege_machine
from repro.service import AnalysisEngine, AnalysisServer, ServiceClient, protocol
from repro.service.client import ServiceUnavailable
from repro.service.metrics import Metrics
from repro.synth.workloads import random_annotated_graph
from repro.testing import FaultError, FaultInjector, FlakyProxy, SpinningEngine

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

MACHINE = privilege_machine()

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


def build_solver(algebra_cls, budget=None, n_vars=40, n_edges=260, seed=3):
    """A solver loaded with a random annotated workload (not yet solved
    when a tiny budget interrupts the batch)."""
    workload = random_annotated_graph(
        MACHINE, n_vars, n_edges, seed=seed, n_sources=3
    )
    algebra = algebra_cls(MACHINE)
    solver = Solver(algebra, budget=budget)
    variables = [Variable(f"v{i}") for i in range(workload.n_vars)]
    batch = [(Constructor(f"src{i}", 0)(), variables[i]) for i in workload.sources]
    batch += [
        (variables[s], variables[d], algebra.word(w))
        for s, d, w in workload.edges
    ]
    return solver, batch


def solved_form(solver):
    out = set()
    decode = getattr(solver.algebra, "decode", None)
    for var in solver.variables():
        for source, annotation in solver.lower_bounds(var):
            out.add((var, source, decode(annotation) if decode else annotation))
    return out


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return False


def make_request(op, params=None, request_id=1):
    return json.dumps(
        {"v": protocol.PROTOCOL_VERSION, "id": request_id, "op": op,
         "params": params or {}}
    )


CHECK_PARAMS = {"program": "spin", "property": "spin"}


# ---------------------------------------------------------------------------
# budgets and cancellation
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_step_budget_interrupts_with_progress(self):
        solver, batch = build_solver(
            MonoidAlgebra, Budget(max_steps=50, check_interval=1)
        )
        with pytest.raises(SolverBudgetExceeded) as err:
            solver.add_many(batch)
        assert err.value.limit == "steps"
        assert err.value.progress["steps"] == 50
        assert err.value.progress["facts"] > 0
        assert err.value.progress["pending"] > 0
        assert solver.pending_count() == err.value.progress["pending"]

    def test_time_budget_interrupts(self):
        solver, batch = build_solver(
            MonoidAlgebra, Budget(max_seconds=1e-6, check_interval=1)
        )
        with pytest.raises(SolverBudgetExceeded) as err:
            solver.add_many(batch)
        assert err.value.limit == "seconds"

    def test_fact_budget_interrupts(self):
        solver, batch = build_solver(
            MonoidAlgebra, Budget(max_facts=30, check_interval=1)
        )
        with pytest.raises(SolverBudgetExceeded) as err:
            solver.add_many(batch)
        assert err.value.limit == "facts"
        assert solver.fact_count() >= 30

    def test_budget_accumulates_across_small_drains(self):
        # The online solver drains after every add(); the step budget
        # still applies to the running total, not per-drain.
        solver, batch = build_solver(
            MonoidAlgebra, Budget(max_steps=120, check_interval=1)
        )
        with pytest.raises(SolverBudgetExceeded):
            for constraint in batch:
                solver.add(*constraint)
        assert solver.budget.steps >= 120

    def test_cancellation_from_another_thread(self):
        token = CancellationToken()
        solver, batch = build_solver(
            MonoidAlgebra, Budget(token=token, check_interval=1)
        )
        caught = []

        def solve():
            try:
                solver.add_many(batch)
            except SolverCancelled as exc:
                caught.append(exc)

        # Cancel before the drain starts: deterministic regardless of
        # how fast the solve is.
        token.cancel()
        worker = threading.Thread(target=solve)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(caught) == 1
        assert "cancelled" in str(caught[0])

    def test_interrupted_solver_resumes_to_fixpoint(self):
        full, batch = build_solver(MonoidAlgebra)
        full.add_many(batch)
        part, batch = build_solver(
            MonoidAlgebra, Budget(max_steps=60, check_interval=1)
        )
        with pytest.raises(SolverBudgetExceeded):
            part.add_many(batch)
        part.resume(Budget())  # fresh, unlimited budget
        assert part.pending_count() == 0
        assert solved_form(part) == solved_form(full)

    def test_exhausted_budget_still_enforced_on_resume(self):
        part, batch = build_solver(
            MonoidAlgebra, Budget(max_steps=60, check_interval=1)
        )
        with pytest.raises(SolverBudgetExceeded):
            part.add_many(batch)
        with pytest.raises(SolverBudgetExceeded):
            part.resume()  # the spent budget stays attached


# ---------------------------------------------------------------------------
# checkpoint / resume equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algebra_cls", [MonoidAlgebra, CompiledMonoidAlgebra])
class TestCheckpointResume:
    def test_checkpoint_resume_equals_uninterrupted(self, algebra_cls):
        full, batch = build_solver(algebra_cls)
        full.add_many(batch)
        part, batch = build_solver(
            algebra_cls, Budget(max_steps=70, check_interval=1)
        )
        with pytest.raises(SolverBudgetExceeded):
            part.add_many(batch)
        pending = part.pending_count()
        assert pending > 0
        loaded = load_solver(dump_solver(part))
        assert loaded.pending_count() == pending
        loaded.resume()
        assert loaded.pending_count() == 0
        assert solved_form(loaded) == solved_form(full)
        assert loaded.fact_count() == full.fact_count()

    def test_checkpoint_survives_snapshot_roundtrip(self, algebra_cls, tmp_path):
        full, batch = build_solver(algebra_cls)
        full.add_many(batch)
        part, batch = build_solver(
            algebra_cls, Budget(max_steps=70, check_interval=1)
        )
        with pytest.raises(SolverBudgetExceeded):
            part.add_many(batch)
        path = tmp_path / "checkpoint.json"
        write_snapshot(path, dump_solver(part))
        loaded = load_solver(read_snapshot(path))
        loaded.resume()
        assert solved_form(loaded) == solved_form(full)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    max_steps=st.integers(min_value=1, max_value=300),
    compiled=st.booleans(),
)
def test_checkpoint_resume_property(seed, max_steps, compiled):
    """For any workload and any interruption point: dump → load → resume
    reaches exactly the uninterrupted solved form."""
    algebra_cls = CompiledMonoidAlgebra if compiled else MonoidAlgebra
    full, batch = build_solver(algebra_cls, n_vars=20, n_edges=90, seed=seed)
    full.add_many(batch)
    part, batch = build_solver(
        algebra_cls,
        Budget(max_steps=max_steps, check_interval=1),
        n_vars=20,
        n_edges=90,
        seed=seed,
    )
    try:
        part.add_many(batch)
    except SolverBudgetExceeded:
        pass
    loaded = load_solver(dump_solver(part))
    loaded.resume()
    assert solved_form(loaded) == solved_form(full)
    assert loaded.fact_count() == full.fact_count()


# ---------------------------------------------------------------------------
# crash-safe snapshots
# ---------------------------------------------------------------------------


class TestSnapshotCrashSafety:
    def test_mid_dump_crash_preserves_previous_snapshot(self, tmp_path):
        injector = FaultInjector(SEED)
        path = tmp_path / "solver.json"
        write_snapshot(path, "generation one")
        with injector.crash_during_dump():
            with pytest.raises(FaultError):
                write_snapshot(path, "generation two")
        # The previous complete snapshot survives; no temp litter.
        assert read_snapshot(path) == "generation one"
        assert list(tmp_path.iterdir()) == [path]

    def test_mid_dump_crash_with_no_previous_snapshot(self, tmp_path):
        injector = FaultInjector(SEED)
        path = tmp_path / "solver.json"
        with injector.crash_during_dump():
            with pytest.raises(FaultError):
                write_snapshot(path, "never lands")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_truncation_detected(self, tmp_path):
        injector = FaultInjector(SEED)
        path = tmp_path / "solver.json"
        solver, batch = build_solver(MonoidAlgebra)
        solver.add_many(batch)
        write_snapshot(path, dump_solver(solver))
        injector.truncate_file(path)
        with pytest.raises(SnapshotCorrupt):
            read_snapshot(path)

    def test_bit_flip_detected(self, tmp_path):
        injector = FaultInjector(SEED)
        path = tmp_path / "solver.json"
        solver, batch = build_solver(MonoidAlgebra)
        solver.add_many(batch)
        write_snapshot(path, dump_solver(solver))
        header_len = len(open(path, "rb").readline())
        injector.flip_bits(path, n_flips=3, skip=header_len)
        with pytest.raises(SnapshotCorrupt):
            read_snapshot(path)

    def test_engine_falls_back_to_cold_solve_on_corruption(self, tmp_path):
        injector = FaultInjector(SEED)
        warm = AnalysisEngine(snapshot_dir=tmp_path)
        expected = warm.check(VULNERABLE, "simple-privilege")
        (snapshot,) = list(tmp_path.iterdir())
        injector.truncate_file(snapshot)
        fresh = AnalysisEngine(snapshot_dir=tmp_path)
        result = fresh.check(VULNERABLE, "simple-privilege")
        assert result == expected
        assert fresh.metrics.get("cache.snapshot.corrupt") == 1
        assert fresh.metrics.get("cache.snapshot.warm") == 0
        # the corrupt file was quarantined, then a fresh one was saved
        assert fresh.metrics.get("cache.snapshot.saved") == 1
        again = AnalysisEngine(snapshot_dir=tmp_path)
        warm_result = again.check(VULNERABLE, "simple-privilege")
        assert warm_result == expected
        assert again.metrics.get("cache.snapshot.warm") == 1


# ---------------------------------------------------------------------------
# server resource governance
# ---------------------------------------------------------------------------


class TestServerGovernance:
    def test_timeout_cancels_worker_and_releases_slot(self):
        engine = SpinningEngine()
        server = AnalysisServer(engine=engine, workers=1, timeout=0.2)
        try:
            reply = json.loads(
                server.process_line(make_request("check", CHECK_PARAMS))
            )
            assert not reply["ok"]
            assert reply["error"]["code"] == protocol.E_TIMEOUT
            # the worker actually observed the cancellation...
            assert wait_until(
                lambda: server.metrics.get("requests.cancelled") >= 1
            ), "worker leaked: cancellation never observed"
            # ...and its pool slot came back (no leaked busy thread):
            assert wait_until(
                lambda: server.metrics.gauge("requests.inflight") == 0
            )
            reply = json.loads(server.process_line(make_request("ping")))
            assert reply["ok"]
        finally:
            engine.abort.set()
            server.close()

    def test_shutdown_cancels_inflight_work(self):
        engine = SpinningEngine()
        server = AnalysisServer(engine=engine, workers=1, timeout=None)
        replies = []
        worker = threading.Thread(
            target=lambda: replies.append(
                json.loads(server.process_line(make_request("check", CHECK_PARAMS)))
            )
        )
        worker.start()
        try:
            assert engine.started.wait(5), "analysis never started"
            server.close()
            worker.join(timeout=5)
            assert not worker.is_alive(), "shutdown leaked a busy worker"
            assert replies[0]["error"]["code"] == protocol.E_CANCELLED
            assert server.metrics.get("requests.cancelled") == 1
        finally:
            engine.abort.set()
            server.close()

    def test_load_shedding_with_bounded_queue(self):
        engine = SpinningEngine()
        server = AnalysisServer(
            engine=engine, workers=1, timeout=None, max_queue=0
        )
        replies = []
        worker = threading.Thread(
            target=lambda: replies.append(
                json.loads(server.process_line(make_request("check", CHECK_PARAMS)))
            )
        )
        worker.start()
        try:
            assert engine.started.wait(5)
            assert server.metrics.gauge("requests.inflight") == 1
            shed = json.loads(
                server.process_line(make_request("check", CHECK_PARAMS, 2))
            )
            assert not shed["ok"]
            assert shed["error"]["code"] == protocol.E_OVERLOADED
            assert server.metrics.get("requests.shed") == 1
            # health stays answerable while analysis load is shed
            assert json.loads(server.process_line(make_request("ping", {}, 3)))["ok"]
        finally:
            server.close()
            worker.join(timeout=5)
            engine.abort.set()

    def test_circuit_breaker_trips_and_half_open_recovers(self):
        class FlippableEngine:
            def __init__(self):
                self.metrics = Metrics()
                self.fail = True

            def dispatch(self, op, params, budget=None):
                if op == "ping":
                    return {"pong": True}
                if self.fail:
                    raise RuntimeError("transient backend failure")
                return {"answer": 42}

        engine = FlippableEngine()
        server = AnalysisServer(
            engine=engine,
            workers=1,
            breaker_threshold=2,
            breaker_cooldown=0.2,
        )
        try:
            for request_id in (1, 2):
                reply = json.loads(
                    server.process_line(
                        make_request("check", CHECK_PARAMS, request_id)
                    )
                )
                assert reply["error"]["code"] == protocol.E_INTERNAL
            # threshold reached: the fingerprint is refused without running
            tripped = json.loads(
                server.process_line(make_request("check", CHECK_PARAMS, 3))
            )
            assert tripped["error"]["code"] == protocol.E_CIRCUIT_OPEN
            assert server.metrics.get("breaker.open") == 1
            # a *different* request is unaffected
            other = json.loads(
                server.process_line(
                    make_request("check", {"program": "other", "property": "p"}, 4)
                )
            )
            assert other["error"]["code"] == protocol.E_INTERNAL
            # after the cooldown, one probe is admitted; success closes
            engine.fail = False
            time.sleep(0.25)
            probe = json.loads(
                server.process_line(make_request("check", CHECK_PARAMS, 5))
            )
            assert probe["ok"]
            assert json.loads(
                server.process_line(make_request("check", CHECK_PARAMS, 6))
            )["ok"]
        finally:
            server.close()

    def test_wire_budget_param_yields_typed_error(self):
        server = AnalysisServer(workers=1)
        try:
            reply = json.loads(
                server.process_line(
                    make_request(
                        "check",
                        {
                            "program": VULNERABLE,
                            "property": "simple-privilege",
                            "budget": {"steps": 3},
                        },
                    )
                )
            )
            assert not reply["ok"]
            assert reply["error"]["code"] == protocol.E_BUDGET
            assert server.metrics.get("requests.budget_exceeded") == 1
        finally:
            server.close()


# ---------------------------------------------------------------------------
# client retry / reconnect
# ---------------------------------------------------------------------------


class TestClientRetry:
    def _server(self):
        server = AnalysisServer(workers=2)
        host, port = server.start_tcp()
        return server, host, port

    def test_retries_through_failed_connects(self):
        server, host, port = self._server()
        proxy = FlakyProxy(host, port, fail_connects=2)
        proxy_host, proxy_port = proxy.start()
        try:
            client = ServiceClient(
                proxy_host,
                proxy_port,
                retries=3,
                backoff=0.01,
                retry_seed=SEED,
            )
            assert client.ping()["pong"]
            assert proxy.connects == 3  # two injected failures + success
            client.close()
        finally:
            proxy.stop()
            server.close()

    def test_reconnects_after_mid_conversation_drop(self):
        server, host, port = self._server()
        proxy = FlakyProxy(host, port, drop_after=1)
        proxy_host, proxy_port = proxy.start()
        try:
            client = ServiceClient(
                proxy_host,
                proxy_port,
                retries=2,
                backoff=0.01,
                retry_seed=SEED,
            )
            assert client.ping()["pong"]  # connection is severed after this
            assert client.ping()["pong"]  # transparently reconnects
            assert proxy.connects == 2
            client.close()
        finally:
            proxy.stop()
            server.close()

    def test_unavailable_after_exhausting_retries(self):
        server, host, port = self._server()
        proxy = FlakyProxy(host, port, fail_connects=100)
        proxy_host, proxy_port = proxy.start()
        try:
            client = ServiceClient(
                proxy_host,
                proxy_port,
                retries=2,
                backoff=0.01,
                retry_seed=SEED,
            )
            with pytest.raises(ServiceUnavailable) as err:
                client.ping()
            assert err.value.code == protocol.E_UNAVAILABLE
            assert proxy.connects == 3
            client.close()
        finally:
            proxy.stop()
            server.close()


# ---------------------------------------------------------------------------
# journal crash durability
# ---------------------------------------------------------------------------

JOURNAL_P1 = "void main() {\n  open();\n  use();\n  close();\n}\n"
JOURNAL_P2 = "void main() {\n  open();\n  use();\n  use();\n  close();\n}\n"
JOURNAL_PROP = "chroot-jail"


class TestJournalFaults:
    def _session(self, tmp_path, **engine_kw):
        """An engine with one journaled hot session two patches deep."""
        engine = AnalysisEngine(journal_dir=tmp_path, **engine_kw)
        r1 = engine.patch(JOURNAL_P1, JOURNAL_PROP)
        r2 = engine.patch(JOURNAL_P2, JOURNAL_PROP, base=r1["version"])
        return engine, r1, r2

    def _cold(self, source):
        return AnalysisEngine().patch(source, JOURNAL_PROP)

    def test_torn_tail_quarantines_to_cold_fallback(self, tmp_path):
        injector = FaultInjector(SEED)
        engine, r1, r2 = self._session(tmp_path)
        engine.close()
        fp = r2["fingerprint"]
        wal = tmp_path / f"{fp}.wal"
        cut = injector.tear_journal_tail(wal)
        assert cut > 0
        fresh = AnalysisEngine(journal_dir=tmp_path)
        assert fresh.recoveries == 0
        assert fresh.metrics.get("journal.quarantined") == 1
        result = fresh.patch(JOURNAL_P2, JOURNAL_PROP, base=r2["version"])
        assert result["fallback"] == "quarantined-torn-record"
        # the damaged evidence is preserved for the operator
        assert (tmp_path / f"{fp}.wal.quarantined").exists()
        cold = self._cold(JOURNAL_P2)
        for field in ("has_violation", "violations", "facts"):
            assert result[field] == cold[field]
        # the session is live again after the typed fallback
        follow = fresh.patch(JOURNAL_P1, JOURNAL_PROP, base=result["version"])
        assert follow["patched"] is True
        fresh.close()

    def test_bit_flip_quarantines_to_cold_fallback(self, tmp_path):
        injector = FaultInjector(SEED)
        engine, r1, r2 = self._session(tmp_path)
        engine.close()
        fp = r2["fingerprint"]
        injector.corrupt_journal_record(tmp_path / f"{fp}.wal", record=0)
        fresh = AnalysisEngine(journal_dir=tmp_path)
        result = fresh.patch(JOURNAL_P2, JOURNAL_PROP, base=r2["version"])
        assert result["fallback"] == "quarantined-corrupt-record"
        cold = self._cold(JOURNAL_P2)
        for field in ("has_violation", "violations", "facts"):
            assert result[field] == cold[field]
        fresh.close()

    def test_crash_between_append_and_fsync(self, tmp_path):
        """The record hits the OS before fsync: a crash there loses the
        *acknowledgement*, not the record — restart replays it and a
        keyed retry answers from the recovered session."""
        injector = FaultInjector(SEED)
        engine, _, r2 = self._session(tmp_path)
        with injector.crash_before_fsync():
            with pytest.raises(FaultError):
                engine.patch(
                    JOURNAL_P1, JOURNAL_PROP, base=r2["version"], key="retry-me"
                )
        engine.close()
        fresh = AnalysisEngine(journal_dir=tmp_path)
        assert fresh.recoveries == 1
        retry = fresh.patch(
            JOURNAL_P1, JOURNAL_PROP, base=r2["version"], key="retry-me"
        )
        assert retry["replayed"] is True
        assert retry["patched"] is True
        cold = self._cold(JOURNAL_P1)
        for field in ("has_violation", "violations", "facts"):
            assert retry[field] == cold[field]
        fresh.close()

    def test_crash_mid_compaction_preserves_wal(self, tmp_path):
        """A crash while writing the compaction snapshot must leave the
        un-rotated journal behind; restart replays the full suffix."""
        injector = FaultInjector(SEED)
        engine = AnalysisEngine(journal_dir=tmp_path, journal_compact_every=1)
        r1 = engine.patch(JOURNAL_P1, JOURNAL_PROP)
        with injector.crash_during_dump():
            with pytest.raises(FaultError):
                engine.patch(JOURNAL_P2, JOURNAL_PROP, base=r1["version"])
        engine.close()
        fresh = AnalysisEngine(journal_dir=tmp_path)
        assert fresh.recoveries == 1
        assert fresh.metrics.get("journal.quarantined") == 0
        # the patch had applied before the compaction crash; the
        # recovered session is at the new version
        from repro.service import program_hash

        result = fresh.patch(
            JOURNAL_P1, JOURNAL_PROP, base=program_hash(JOURNAL_P2)
        )
        assert result["patched"] is True
        fresh.close()


class TestIdempotentRetry:
    def test_lost_response_replays_instead_of_base_mismatch(self, tmp_path):
        """Satellite regression: the proxy swallows the server's patch
        response *after* the server applied it; the client's transparent
        retry carries the same auto-generated idempotency key, so the
        server answers from the journaled session instead of degrading
        to a base-mismatch cold solve."""
        engine = AnalysisEngine(journal_dir=tmp_path)
        server = AnalysisServer(engine, workers=2)
        host, port = server.start_tcp()
        proxy = FlakyProxy(host, port, drop_response=2)
        proxy_host, proxy_port = proxy.start()
        try:
            client = ServiceClient(
                proxy_host,
                proxy_port,
                retries=3,
                backoff=0.01,
                retry_seed=SEED,
            )
            first = client.patch(JOURNAL_P1, JOURNAL_PROP)
            assert first["replayed"] is False
            # response #2 is swallowed mid-flight; the retry re-sends
            # the identical request (same key) over a new connection
            second = client.patch(
                JOURNAL_P2, JOURNAL_PROP, base=first["version"]
            )
            assert proxy.responses >= 2
            assert second["replayed"] is True
            assert second["patched"] is True
            assert second["fallback"] is None
            assert engine.metrics.get("patch.replayed") == 1
            assert engine.metrics.get("patch.fallback.base-mismatch") == 0
            client.close()
        finally:
            proxy.stop()
            server.close()
