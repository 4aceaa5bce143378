"""Child processes: one-shot ``repro check`` runs and ``repro serve`` servers.

Every child is reaped before the function that started it returns,
also when a run fails; servers listen on an OS-chosen loopback port.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.service.client import ServiceClient, ServiceError

HERE = Path(__file__).resolve().parent
TRACE_BOOT = HERE / "trace_boot.py"


def repro_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def repro_argv(args: list[str], spans: Path | None) -> list[str]:
    """``python -m repro ARGS``, or the traced bootstrap around the same
    ``repro.cli.main(ARGS)`` call."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(TRACE_BOOT), str(spans), "--", *args]


@dataclass
class Finished:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_once(argv: list[str], env: dict[str, str], cwd: Path, timeout: float) -> Finished:
    """Run a child to completion; time launch to exit, take its peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd
    )
    try:
        out, err = _read_pipes(proc, timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    # wait4, not Popen.wait: it also returns the child's rusage
    _pid, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        seconds,
        proc.returncode,
        out.decode("utf-8", "replace"),
        err.decode("utf-8", "replace"),
        usage.ru_maxrss / 1024.0,
    )


def _read_pipes(proc: subprocess.Popen, timeout: float) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF without reaping the child."""
    deadline = time.monotonic() + timeout
    streams = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as selector:
        for stream in streams:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"{proc.args[1:4]} ran over {timeout}s")
            for key, _events in selector.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    streams[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    for stream in streams:
        stream.close()
    return b"".join(streams[proc.stdout]), b"".join(streams[proc.stderr])


class Server:
    """A ``repro serve --tcp 127.0.0.1:0`` child and a client bound to it."""

    def __init__(
        self,
        args: list[str],
        env: dict[str, str],
        cwd: Path,
        spans: Path | None = None,
        timeout: float = 60.0,
    ):
        self.proc = subprocess.Popen(
            repro_argv(["serve", "--tcp", "127.0.0.1:0", *args], spans),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            cwd=cwd,
        )
        self.timeout = timeout
        self.port: int | None = None
        self.stderr: list[str] = []
        self._listening = threading.Event()
        self._pump = threading.Thread(target=self._read_stderr, daemon=True)
        self._pump.start()
        self.port = self._wait_port()

    def _read_stderr(self) -> None:
        # Drained on a thread for the server's whole life, so a chatty
        # server can never block on a full pipe.
        assert self.proc.stderr is not None
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace")
            self.stderr.append(line)
            if "listening on " in line:
                self._listening.set()
        self._listening.set()

    def _wait_port(self) -> int:
        self._listening.wait(self.timeout)
        for line in self.stderr:
            if "listening on " in line:
                return int(line.rsplit(":", 1)[1])
        self.close()
        raise RuntimeError(f"repro serve did not start: {''.join(self.stderr)[-2000:]}")

    def client(self) -> ServiceClient:
        return ServiceClient(
            "127.0.0.1", self.port, timeout=self.timeout, retries=0, retry_seed=0
        )

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server, read while it is still alive."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """Ask for ``shutdown``; escalate to SIGTERM/SIGKILL; reap."""
        if self.proc.poll() is None:
            if self.port is None:
                self.proc.send_signal(signal.SIGTERM)
            else:
                try:
                    with self.client() as client:
                        client.request("shutdown")
                except (OSError, ServiceError):
                    pass  # the connection closing on shutdown is success
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self._pump.join(timeout=10)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
