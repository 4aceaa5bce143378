"""Tests for the JSON-lines server: transports, isolation, concurrency."""

import json
import textwrap
import threading
import time

import pytest

from repro.service import (
    AnalysisEngine,
    AnalysisServer,
    ServiceClient,
    ServiceError,
)
from repro.service import protocol

VULNERABLE = textwrap.dedent(
    """
    int main() {
      seteuid(0);
      execl("/bin/sh");
      return 0;
    }
    """
)

FIG11 = """
pair(y : int) : b = (1@A, y@Y)@P;
main() : int = (pair^i(2@B)).2@V;
"""


def make_request(op, params=None, request_id=1, version=protocol.PROTOCOL_VERSION):
    return json.dumps(
        {"v": version, "id": request_id, "op": op, "params": params or {}}
    )


class TestProcessLine:
    """The transport-independent pipeline, driven directly."""

    def setup_method(self):
        self.server = AnalysisServer(workers=2)

    def teardown_method(self):
        self.server.close()

    def _send(self, line):
        return json.loads(self.server.process_line(line))

    def test_ping(self):
        reply = self._send(make_request("ping"))
        assert reply["ok"] and reply["result"]["pong"]

    def test_malformed_line(self):
        reply = self._send("this is not json")
        assert not reply["ok"]
        assert reply["error"]["code"] == protocol.E_MALFORMED

    def test_version_mismatch(self):
        reply = self._send(make_request("ping", version=99))
        assert not reply["ok"]
        assert reply["error"]["code"] == protocol.E_VERSION
        assert reply["id"] == 1  # correlated despite the error

    def test_fault_isolation_bad_program(self):
        reply = self._send(
            make_request(
                "check", {"program": "int main( {", "property": "simple-privilege"}
            )
        )
        assert not reply["ok"]
        assert reply["error"]["code"] == protocol.E_PARSE
        # the server survives and keeps answering
        assert self._send(make_request("ping"))["ok"]

    def test_fault_isolation_internal_error(self):
        # force an unexpected exception inside the engine
        def boom(op, params, budget=None):
            raise RuntimeError("kaboom")

        self.server.engine.dispatch = boom
        reply = self._send(make_request("ping"))
        assert not reply["ok"]
        assert reply["error"]["code"] == protocol.E_INTERNAL
        assert "kaboom" in reply["error"]["message"]

    def test_timeout(self):
        server = AnalysisServer(workers=1, timeout=0.05)
        slow = threading.Event()

        def sleepy(op, params, budget=None):
            slow.wait(2)
            return {}

        server.engine.dispatch = sleepy
        try:
            reply = json.loads(
                server.process_line(
                    make_request(
                        "check", {"program": "x", "property": "simple-privilege"}
                    )
                )
            )
            assert not reply["ok"]
            assert reply["error"]["code"] == protocol.E_TIMEOUT
        finally:
            slow.set()
            server.close()

    def test_shutdown_acknowledged_then_refuses(self):
        reply = self._send(make_request("shutdown"))
        assert reply["ok"] and reply["result"]["closing"]
        reply = self._send(make_request("ping"))
        assert not reply["ok"]
        assert reply["error"]["code"] == protocol.E_SHUTTING_DOWN


class TestStdioTransport:
    def test_serves_until_shutdown(self):
        import io

        lines = "\n".join(
            [
                make_request("ping", request_id=1),
                "",  # blank lines are skipped
                make_request("stats", request_id=2),
                make_request("shutdown", request_id=3),
                make_request("ping", request_id=4),  # never read
            ]
        )
        out = io.StringIO()
        AnalysisServer(workers=2).serve_stdio(io.StringIO(lines), out)
        replies = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert all(r["ok"] for r in replies)


class TestTCPTransport:
    def test_concurrent_mixed_requests_share_caches(self):
        """≥8 parallel mixed requests against one server; repeats hit cache."""
        engine = AnalysisEngine()
        server = AnalysisServer(engine, workers=4)
        host, port = server.start_tcp()
        errors: list = []

        def worker(kind):
            try:
                with ServiceClient(host, port) as client:
                    if kind == "check":
                        result = client.check(VULNERABLE, "simple-privilege")
                        assert result["has_violation"]
                    elif kind == "dataflow":
                        result = client.dataflow(VULNERABLE, ["seteuid"])
                        assert result["facts"] == ["seteuid"]
                    elif kind == "flow":
                        assert client.flow(FIG11, query=["B", "V"])["flows"]
                    elif kind == "whatif":
                        assert client.flow(
                            FIG11, query=["A", "V"], assume=[["A", "B"]]
                        )["flows"]
                    elif kind == "ping":
                        assert client.ping()["pong"]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((kind, exc))

        kinds = [
            "check", "check", "check",
            "dataflow", "dataflow",
            "flow", "flow",
            "whatif",
            "ping",
        ]
        threads = [threading.Thread(target=worker, args=(k,)) for k in kinds]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            with ServiceClient(host, port) as client:
                stats = client.stats()
            counters = stats["counters"]
            # 3× check + 2× dataflow + 2/3× flow on the same keys: the
            # duplicates must have hit the solved-system cache.
            assert counters["cache.solve.hits"] >= 3
            # at most one solve per distinct (machine, program) key
            assert counters["cache.solve.misses"] <= 4
            assert counters["requests.total"] >= len(kinds)
            assert stats["solver"]["rollbacks"] >= 1  # the what-if
            # Every solve runs on one solver: no shard, partition or shm keys.
            assert not {"shards", "partition", "shm"} & set(stats)
        finally:
            server.close()

    def test_pipelined_requests_on_one_connection(self):
        server = AnalysisServer(workers=4)
        host, port = server.start_tcp()
        try:
            with ServiceClient(host, port) as client:
                for i in range(5):
                    assert client.ping()["pong"]
                assert client.stats()["counters"]["requests.ping"] == 5
        finally:
            server.close()

    def test_shutdown_over_the_wire(self):
        server = AnalysisServer(workers=2)
        host, port = server.start_tcp()
        try:
            with ServiceClient(host, port) as client:
                assert client.shutdown()["closing"]
            assert server.wait(timeout=5)
            deadline = time.time() + 5
            while time.time() < deadline:
                try:
                    with ServiceClient(host, port) as client:
                        client.ping()
                except (OSError, ServiceError):
                    break  # listener gone or refusing: shutdown took
                time.sleep(0.05)
            else:  # pragma: no cover - failure path
                pytest.fail("server still accepting after shutdown")
        finally:
            server.close()

    def test_error_does_not_kill_connection(self):
        server = AnalysisServer(workers=2)
        host, port = server.start_tcp()
        try:
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as err:
                    client.check("int main( {", "simple-privilege")
                assert err.value.code == protocol.E_PARSE
                assert client.ping()["pong"]  # same connection still good
        finally:
            server.close()
