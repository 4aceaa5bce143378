"""The cyclic-collector pause (``repro.gcpause``) and the invariant behind it.

The CLI and the engine switch CPython's cyclic garbage collector off
while a command or a request analyses.  That is only sound while
analysis leaves no reference cycles behind: everything it allocates
must be freed by reference counting alone.  ``TestNoCycles`` pins that
invariant for every request kind, on both entry points the transports
use.  The other tests pin the pause itself: it is scoped to the call,
restores what the caller had, leaves ``serve`` alone, and holds under
nested and concurrent use.
"""

import gc
import json
import os
import sys
import textwrap
import threading
import time

import pytest

import repro.cli
from repro.core.budget import Budget, CancellationToken
from repro.gcpause import paused
from repro.service import AnalysisEngine, AnalysisServer, EngineError
from repro.synth import PackageSpec, generate_package

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

#: One edit of VULNERABLE: the privilege drop moves before the exec.
PATCHED = VULNERABLE.replace(
    '  execl("/bin/sh");\n  drop();', '  drop();\n  execl("/bin/sh");'
)

FIG11 = """
pair(y : int) : b = (1@A, y@Y)@P;
main() : int = (pair^i(2@B)).2@V;
"""

#: Large enough that its solve outlives a 20 ms deadline.
LARGE = generate_package(PackageSpec("gc", 2_000, 30, seed=5))


def _check(program, **extra):
    return {"program": program, "property": "simple-privilege", **extra}


def _requests(send, cancel):
    """Send one request of every kind the engine serves.

    ``send(op, params)`` returns the result or the refusal's code;
    ``cancel(op, params)`` sends a request whose solve gets cancelled
    and returns the refusal's code.
    """
    assert send("ping", {})["pong"]
    plain = send("check", _check(VULNERABLE))
    assert plain["has_violation"]
    assert send("check", _check(VULNERABLE, traces=True))["has_violation"]
    assert send("check", _check(VULNERABLE)) == plain  # cache hit
    assert send("check", {"program": VULNERABLE, "property": "file-state"})
    assert send("dataflow", {"program": VULNERABLE, "track": ["seteuid"]})
    assert send("flow", {"program": FIG11, "query": ["B", "V"]})["flows"]
    assert send(
        "flow", {"program": FIG11, "query": ["A", "V"], "assume": [["A", "B"]]}
    )["flows"]
    cold = send("patch", _check(VULNERABLE))
    assert cold["fallback"] == "cold-start"
    applied = send("patch", _check(PATCHED, base=cold["version"]))
    assert applied["patched"]
    assert send("patch", _check(VULNERABLE, base="stale"))["fallback"] == (
        "base-mismatch"
    )
    assert send("patch", {"program": VULNERABLE, "property": "file-state"}) == (
        "unsupported"
    )
    assert send("check", _check("int main( {")) == "parse-error"
    assert send("check", _check(PATCHED, budget={"steps": 1})) == (
        "budget-exceeded"
    )
    assert cancel("check", _check(LARGE)) in ("cancelled", "deadline-exceeded")
    assert send("stats", {})["counters"]


def _engine(root):
    return AnalysisEngine(
        snapshot_dir=root / "snapshots", journal_dir=root / "journal"
    )


def _dispatch_round(root):
    """A round through ``AnalysisEngine.dispatch``, as the pool workers call it."""

    def on(engine):
        def send(op, params, budget=None):
            try:
                return engine.dispatch(op, params, budget=budget)
            except EngineError as exc:
                return exc.code

        return send

    token = CancellationToken()
    token.cancel()
    engine = _engine(root)
    send = on(engine)
    _requests(send, lambda op, params: send(op, params, Budget(token=token)))
    engine.close()
    # A second engine: the snapshot warm load and the journal recovery.
    again = _engine(root)
    assert again.recoveries == 1
    on(again)("check", _check(VULNERABLE))
    assert again.metrics.get("cache.snapshot.warm") == 1
    again.close()


def _server_round(root):
    """A round through ``AnalysisServer.process_line``, as stdio and TCP call it."""

    def on(server):
        def send(op, params):
            line = json.dumps({"v": 1, "id": 1, "op": op, "params": params})
            reply = json.loads(server.process_line(line))
            return reply["result"] if reply["ok"] else reply["error"]["code"]

        return send

    server = AnalysisServer(_engine(root), workers=1)
    send = on(server)
    # The waiter gives up at the deadline and cancels the solve's token.
    _requests(
        send,
        lambda op, params: send(op, {**params, "deadline": time.time() + 0.02}),
    )
    assert server.drain(30.0)["cancelled"] == 0
    again = AnalysisServer(_engine(root), workers=1)
    assert again.engine.recoveries == 1
    on(again)("check", _check(VULNERABLE))
    assert again.metrics.get("cache.snapshot.warm") == 1
    assert again.drain(30.0)["cancelled"] == 0


class TestNoCycles:
    @pytest.mark.parametrize("round_", [_dispatch_round, _server_round])
    def test_requests_leave_no_cyclic_garbage(self, tmp_path, round_):
        round_(tmp_path / "warm-up")
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            round_(tmp_path / "measured")
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestCliScope:
    @pytest.fixture
    def files(self, tmp_path):
        vulnerable = tmp_path / "vulnerable.c"
        vulnerable.write_text(VULNERABLE)
        clean = tmp_path / "clean.c"
        clean.write_text(PATCHED)
        missing = tmp_path / "missing.c"
        return {"vulnerable": vulnerable, "clean": clean, "missing": missing}

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "file, flags, code",
        [
            ("clean", [], 0),
            ("vulnerable", [], 1),
            ("missing", [], 2),
            ("vulnerable", ["--budget-steps", "1"], 3),
        ],
    )
    def test_main_restores_the_collector(
        self, files, capsys, monkeypatch, enabled, file, flags, code
    ):
        during = []
        real_build_cfg = repro.cli.build_cfg

        def recording_build_cfg(source):
            during.append(gc.isenabled())
            return real_build_cfg(source)

        monkeypatch.setattr(repro.cli, "build_cfg", recording_build_cfg)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            argv = ["check", str(files[file]), "--property", "simple-privilege"]
            assert repro.cli.main(argv + flags) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert during == ([] if file == "missing" else [False])

    def test_serve_runs_with_the_collector_enabled(self, monkeypatch):
        during = []
        monkeypatch.setattr(
            repro.cli, "_cmd_serve", lambda args: during.append(gc.isenabled()) or 0
        )
        assert gc.isenabled()
        assert repro.cli.main(["serve"]) == 0
        assert during == [True]


def test_nested_and_concurrent_pauses():
    """Overlapping pauses on more threads than cores, for one second.

    With a 1 µs switch interval the threads interleave inside the
    pause's bookkeeping.  Without the lock around the depth count, a
    lost update left the collector on inside a pause or off after the
    last one ended, in every run tried.
    """
    assert gc.isenabled()
    seen_enabled = []
    threads = 2 * (os.cpu_count() or 1) + 2
    start = threading.Barrier(threads)

    def worker():
        start.wait(timeout=30)
        stop = time.monotonic() + 1.0
        while time.monotonic() < stop:
            with paused():
                seen_enabled.append(gc.isenabled())
                with paused():
                    seen_enabled.append(gc.isenabled())
                seen_enabled.append(gc.isenabled())

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert seen_enabled and not any(seen_enabled)
    assert gc.isenabled()


def test_pause_keeps_a_disabled_collector_disabled():
    gc.disable()
    try:
        with paused():
            with paused():
                pass
        assert not gc.isenabled()
    finally:
        gc.enable()
    with paused():
        assert not gc.isenabled()
    assert gc.isenabled()
