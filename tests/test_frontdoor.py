"""AsyncAnalysisServer: the selectors front door over process workers.

One loop thread owns every socket; governance (parse, admission,
deadline, breaker) happens inline; solves run in worker processes; the
parent serializes patches.  These tests drive it over real TCP sockets
— including pipelined requests on one connection, typed refusals, the
aggregated ``stats`` report, and the kill-a-worker availability story.
"""

import json
import os
import signal
import socket
import time

import pytest

from repro.service import protocol
from repro.service.frontdoor import AsyncAnalysisServer

PROGRAM = 'int main() { int fd = open("a"); close(fd); close(fd); return 0; }'


class Client:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=120)
        self.reader = self.sock.makefile("r")
        self._next_id = 0

    def send(self, op, params=None, rid=None, **extra):
        if rid is None:
            self._next_id += 1
            rid = self._next_id
        payload = {"v": 1, "id": rid, "op": op, "params": params or {}}
        payload.update(extra)
        self.sock.sendall((json.dumps(payload) + "\n").encode())
        return rid

    def send_raw(self, text):
        self.sock.sendall((text + "\n").encode())

    def recv(self):
        line = self.reader.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    def rpc(self, op, params=None):
        rid = self.send(op, params)
        response = self.recv()
        assert response["id"] == rid
        return response

    def close(self):
        self.sock.close()


@pytest.fixture(scope="module")
def server():
    srv = AsyncAnalysisServer(
        workers=1, preload=["full-privilege"], timeout=60.0
    )
    srv.start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    host, port = server._listener.getsockname()[:2]
    c = Client(host, port)
    yield c
    c.close()


class TestRoundTrips:
    def test_ping(self, client):
        response = client.rpc("ping")
        assert response["ok"] and response["result"]["pong"] is True

    def test_check(self, client):
        response = client.rpc(
            "check", {"program": PROGRAM, "property": "full-privilege"}
        )
        assert response["ok"]
        assert "violations" in response["result"]

    def test_typed_engine_error(self, client):
        response = client.rpc(
            "check", {"program": PROGRAM, "property": "bogus"}
        )
        assert not response["ok"]
        assert response["error"]["code"] == protocol.E_UNSUPPORTED

    def test_malformed_json(self, client):
        client.send_raw("{not json")
        response = client.recv()
        assert response["error"]["code"] == protocol.E_MALFORMED

    def test_version_mismatch(self, client):
        client.send_raw(json.dumps({"v": 99, "id": 1, "op": "ping"}))
        response = client.recv()
        assert response["error"]["code"] == protocol.E_VERSION

    def test_pipelined_requests_all_answered(self, client):
        ids = [
            client.send(
                "check", {"program": PROGRAM, "property": "full-privilege"}
            )
            for _ in range(3)
        ]
        ids.append(client.send("ping"))
        got = {client.recv()["id"] for _ in ids}
        assert got == set(ids)

    def test_expired_deadline_refused_before_admission(self, client):
        response = client.rpc(
            "check",
            {
                "program": PROGRAM,
                "property": "full-privilege",
                "deadline": time.time() - 2.0,
            },
        )
        assert response["error"]["code"] == protocol.E_DEADLINE

    def test_patch_runs_in_parent(self, client, server):
        response = client.rpc(
            "patch", {"program": PROGRAM, "property": "full-privilege"}
        )
        assert response["ok"], response
        # The session lives in the parent engine, not a worker.
        assert server.engine.stats()["cache"]["patch_sessions"] == 1

    def test_stats_aggregates_pool(self, client):
        client.rpc("check", {"program": PROGRAM, "property": "full-privilege"})
        response = client.rpc("stats")
        result = response["result"]
        assert result["pool"]["workers"] == 1
        assert result["frontdoor"]["inflight"] == 0
        counters = result["counters"]
        # Worker-side counters visible through the front door.
        assert counters.get("preload.properties", 0) >= 1
        assert counters.get("pool.dispatched", 0) >= 1
        # Parent-side counters in the same report.
        assert counters.get("requests.total", 0) >= 2
        # Every solve runs on one solver: no shard, partition or shm keys.
        removed = {"shards", "partition", "shm"}
        assert not removed & set(result)
        assert not removed & set(result["pool"])
        assert not [k for k in counters if k.startswith(("transfer.", "shm."))]
        assert "preload.shm_attached" not in counters


class TestAvailability:
    def test_killed_worker_is_unavailable_then_heals(self):
        srv = AsyncAnalysisServer(
            workers=1, preload=["full-privilege"], timeout=60.0
        )
        host, port = srv.start()
        client = Client(host, port)
        try:
            assert client.rpc(
                "check", {"program": PROGRAM, "property": "full-privilege"}
            )["ok"]
            (pid,) = srv.pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            saw_unavailable = False
            healed = False
            deadline = time.time() + 60
            while time.time() < deadline:
                response = client.rpc(
                    "check", {"program": PROGRAM, "property": "full-privilege"}
                )
                if response["ok"]:
                    if saw_unavailable:
                        healed = True
                        break
                else:
                    assert (
                        response["error"]["code"] == protocol.E_UNAVAILABLE
                    ), response
                    saw_unavailable = True
                time.sleep(0.1)
            assert saw_unavailable, "SIGKILL never surfaced as unavailable"
            assert healed, "pool never healed after the rebuild"
            assert srv.pool.rebuilds >= 1
        finally:
            client.close()
            srv.close()

    def test_shutdown_op_drains_and_exits(self):
        srv = AsyncAnalysisServer(workers=1, timeout=30.0)
        host, port = srv.start()
        client = Client(host, port)
        try:
            response = client.rpc("shutdown")
            assert response["result"]["closing"] is True
            srv.wait()  # loop exits once drained
        finally:
            client.close()
            srv.close()
