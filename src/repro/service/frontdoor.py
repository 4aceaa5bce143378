"""Single-thread async front door over the process dispatch pool.

The threaded :class:`~repro.service.server.AnalysisServer` spends one
OS thread per connection plus a worker-pool thread per request, and all
of them share a GIL with the solver.  This module is the scale-out
shape: **one** event-loop thread owns every socket via
:mod:`selectors`, does the cheap inline work itself — protocol parsing,
admission control, deadline bookkeeping, circuit breaking, metrics —
and ships the actual solves to a
:class:`~repro.service.dispatch.DispatchPool` of worker *processes*.

Division of labor:

* **inline (loop thread)**: accept, buffered reads/writes, request
  decode, ``ping``, ``stats`` (aggregating per-worker metrics),
  shutdown, deadline refusal, load shedding, breaker refusal;
* **process pool**: ``check``/``dataflow``/``flow`` — CPU-bound solves,
  preloaded machines, true parallelism;
* **parent, single thread**: ``patch`` — hot patch sessions mutate
  journaled state, and the journal has exactly one writer, so patches
  run on a dedicated one-thread executor in this process, serialized
  in arrival order.

Cross-process revocation: there is no cancellation token to share with
a worker, so the loop folds its own ``timeout`` and any client
``deadline`` into one absolute timestamp, answers the client the moment
it expires, and *forwards the same timestamp* as the wire ``deadline``
param — the worker engine's budget checks stop the orphaned solve at
the same wall-clock instant.  A worker that dies instead of stopping
(``kill -9``) surfaces as a typed ``unavailable`` and the pool rebuilds
itself (see :meth:`DispatchPool._heal`).

The wake-up path is a self-pipe (``socketpair``): pool futures resolve
on executor threads, which enqueue the completion and poke the pipe so
the ``select`` call returns immediately instead of waiting out its
timeout.
"""

from __future__ import annotations

import heapq
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Iterable

from repro.service import protocol
from repro.service.dispatch import DispatchPool
from repro.service.engine import AnalysisEngine, EngineError
from repro.service.metrics import Metrics
from repro.service.server import ANALYSIS_OPS, _BREAKER_CODES, CircuitBreaker, request_fingerprint

__all__ = ["AsyncAnalysisServer"]

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class _Conn:
    """Per-connection buffers owned by the loop thread."""

    __slots__ = ("sock", "rbuf", "wbuf", "closed")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rbuf = b""
        self.wbuf = b""
        self.closed = False


class _Pending:
    """One admitted analysis request awaiting its future."""

    __slots__ = ("conn", "request_id", "op", "fingerprint", "future",
                 "pool", "expiry", "client_deadline", "done")

    def __init__(
        self,
        conn: _Conn,
        request_id: Any,
        op: str,
        fingerprint: str | None,
        future: Future,
        pool: Any,
        expiry: float | None,
        client_deadline: float | None,
    ):
        self.conn = conn
        self.request_id = request_id
        self.op = op
        self.fingerprint = fingerprint
        self.future = future
        self.pool = pool  # ProcessPoolExecutor handle, or None for patch
        self.expiry = expiry  # absolute unix seconds, or None
        self.client_deadline = client_deadline
        self.done = False


class AsyncAnalysisServer:
    """Selectors event loop dispatching solves to worker processes.

    ``engine`` is the *parent* engine: it owns the journal and serves
    ``patch`` and ``stats``; analysis ops run on ``pool`` (built here
    when not supplied, with ``workers``/``preload`` forwarded).  The
    parent engine and the pool share one :class:`Metrics` instance, so
    parent-side counters and the merged worker snapshots land in the
    same ``stats`` report.
    """

    def __init__(
        self,
        engine: AnalysisEngine | None = None,
        pool: DispatchPool | None = None,
        workers: int = 2,
        preload: Iterable[str] = (),
        timeout: float | None = None,
        max_queue: int = 32,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        metrics: Metrics | None = None,
    ):
        if engine is None:
            engine = AnalysisEngine(metrics=metrics)
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue!r}")
        self.engine = engine
        self.metrics = engine.metrics
        if pool is None:
            pool = DispatchPool(
                workers=workers,
                preload=preload,
                cache_size=engine.cache_size,
                metrics=self.metrics,
            )
        self.pool = pool
        self.timeout = timeout
        self.max_queue = max_queue
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)
        # Patches mutate journaled sessions; one thread = one writer,
        # serialized in submission order.
        self._patch_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-patch"
        )
        self._selector = selectors.DefaultSelector()
        self._listener: socket.socket | None = None
        self._loop_thread: threading.Thread | None = None
        self._shutdown = threading.Event()
        # Self-pipe: executor threads poke _wake_w, the loop drains _wake_r.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._completions: deque[_Pending] = deque()
        self._completion_lock = threading.Lock()
        # Loop-thread-only state (no locks needed):
        self._inflight = 0
        self._expiries: list[tuple[float, int, _Pending]] = []  # min-heap
        self._seq = 0

    @property
    def closing(self) -> bool:
        return self._shutdown.is_set()

    # -- lifecycle -------------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind, start the loop thread, return the bound ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        listener.setblocking(False)
        self._listener = listener
        self._selector.register(listener, _READ, "listener")
        self._selector.register(self._wake_r, _READ, "wake")
        self._loop_thread = threading.Thread(
            target=self._loop, name="repro-frontdoor", daemon=True
        )
        self._loop_thread.start()
        return listener.getsockname()[:2]

    def wait(self) -> None:
        """Block until the loop exits (shutdown op or :meth:`close`)."""
        thread = self._loop_thread
        if thread is None:
            return
        while thread.is_alive():
            thread.join(timeout=0.2)

    def signal_shutdown(self) -> None:
        """Request shutdown without tearing anything down yet.

        Safe to call from a signal handler: it sets the shutdown event
        and pokes the self-pipe, so the loop starts draining and
        :meth:`wait` returns once it has; the owning thread then runs
        :meth:`close`.
        """
        self._shutdown.set()
        self._wake()

    def close(self, drain_timeout: float = 5.0) -> None:
        """Stop the loop (draining in-flight responses) and the pools."""
        self._shutdown.set()
        self._wake()
        thread = self._loop_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=drain_timeout)
        self.pool.shutdown(wait=False)
        self._patch_pool.shutdown(wait=False, cancel_futures=True)
        self.engine.close()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass

    # -- event loop ------------------------------------------------------------

    def _loop(self) -> None:
        try:
            while True:
                if self._shutdown.is_set() and self._drained():
                    break
                timeout = self._next_timeout()
                for key, _mask in self._selector.select(timeout):
                    if key.data == "listener":
                        self._accept()
                    elif key.data == "wake":
                        try:
                            while self._wake_r.recv(4096):
                                pass
                        except (BlockingIOError, OSError):
                            pass
                    else:
                        self._service_conn(key.data, _mask)
                self._drain_completions()
                self._expire_overdue()
        finally:
            self._teardown()

    def _drained(self) -> bool:
        if self._inflight:
            return False
        return all(
            not key.data.wbuf
            for key in list(self._selector.get_map().values())
            if isinstance(key.data, _Conn)
        )

    def _next_timeout(self) -> float | None:
        if self._shutdown.is_set():
            return 0.05  # poll toward drained exit
        while self._expiries and self._expiries[0][2].done:
            heapq.heappop(self._expiries)
        if not self._expiries:
            return None
        return max(0.0, self._expiries[0][0] - time.time())

    def _teardown(self) -> None:
        for key in list(self._selector.get_map().values()):
            if isinstance(key.data, _Conn):
                self._close_conn(key.data)
        if self._listener is not None:
            try:
                self._selector.unregister(self._listener)
            except KeyError:
                pass
            self._listener.close()
        self._selector.close()

    # -- connections -----------------------------------------------------------

    def _accept(self) -> None:
        assert self._listener is not None
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        if self._shutdown.is_set():
            sock.close()
            return
        sock.setblocking(False)
        self._selector.register(sock, _READ, _Conn(sock))

    def _service_conn(self, conn: _Conn, mask: int) -> None:
        if mask & _READ:
            try:
                data = conn.sock.recv(65536)
            except BlockingIOError:
                data = None
            except OSError:
                self._close_conn(conn)
                return
            if data == b"":
                self._close_conn(conn)
                return
            if data:
                conn.rbuf += data
                while b"\n" in conn.rbuf:
                    line, conn.rbuf = conn.rbuf.split(b"\n", 1)
                    text = line.decode("utf-8", errors="replace").strip()
                    if text:
                        self._handle_line(conn, text)
        if mask & _WRITE and not conn.closed:
            self._flush(conn)

    def _close_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _send(self, conn: _Conn, response: protocol.Response) -> None:
        if not response.ok:
            self.metrics.incr("requests.failed")
        if conn.closed:
            return
        conn.wbuf += (protocol.encode_response(response) + "\n").encode("utf-8")
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        while conn.wbuf:
            try:
                sent = conn.sock.send(conn.wbuf)
            except BlockingIOError:
                break
            except OSError:
                self._close_conn(conn)
                return
            conn.wbuf = conn.wbuf[sent:]
        try:
            self._selector.modify(
                conn.sock, _READ | (_WRITE if conn.wbuf else 0), conn
            )
        except (KeyError, ValueError):
            pass

    # -- request handling ------------------------------------------------------

    def _handle_line(self, conn: _Conn, line: str) -> None:
        self.metrics.incr("requests.total")
        try:
            request = protocol.decode_request(line)
        except protocol.ProtocolError as exc:
            self._send(
                conn,
                protocol.error_response(exc.request_id, exc.code, exc.message),
            )
            return
        self.metrics.incr(f"requests.{request.op}")
        if request.op == "shutdown":
            self._send(conn, protocol.ok_response(request.id, {"closing": True}))
            self._shutdown.set()
            return
        if self._shutdown.is_set():
            self._send(
                conn,
                protocol.error_response(
                    request.id,
                    protocol.E_SHUTTING_DOWN,
                    "server is shutting down",
                ),
            )
            return
        if request.op not in ANALYSIS_OPS:
            self._send(conn, self._control(request))
            return
        self._admit_analysis(conn, request)

    def _control(self, request: protocol.Request) -> protocol.Response:
        """``ping``/``stats`` — cheap enough to answer on the loop."""
        try:
            result = self.engine.dispatch(request.op, request.params)
            if request.op == "stats":
                merged = self.pool.aggregate_metrics()
                result["counters"] = merged["counters"]
                result["gauges"] = merged["gauges"]
                result["timers"] = merged["timers"]
                result["pool"] = self.pool.stats()
                result["frontdoor"] = {"inflight": self._inflight}
            return protocol.ok_response(request.id, result)
        except EngineError as exc:
            return protocol.error_response(request.id, exc.code, exc.message)
        except Exception as exc:  # fault isolation
            return protocol.error_response(
                request.id, protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    def _admit_analysis(self, conn: _Conn, request: protocol.Request) -> None:
        """Inline governance, then hand the solve to a pool."""
        params = dict(request.params)
        client_deadline: float | None = None
        if "deadline" in params:
            # Popped before fingerprinting — an absolute timestamp varies
            # per send and must not split the breaker buckets.
            raw = params.pop("deadline")
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                self._send(
                    conn,
                    protocol.error_response(
                        request.id,
                        protocol.E_BAD_REQUEST,
                        "deadline must be an absolute unix timestamp (seconds)",
                    ),
                )
                return
            client_deadline = float(raw)
            expired = time.time() - client_deadline
            if expired >= 0:
                self.metrics.incr("requests.deadline_exceeded")
                self._send(
                    conn,
                    protocol.error_response(
                        request.id,
                        protocol.E_DEADLINE,
                        f"deadline expired {expired:.3f}s before admission",
                    ),
                )
                return
        fingerprint = request_fingerprint(request.op, params)
        if self.breaker.is_open(fingerprint):
            self.metrics.incr("breaker.open")
            self._send(
                conn,
                protocol.error_response(
                    request.id,
                    protocol.E_CIRCUIT_OPEN,
                    "request fingerprint is failing repeatedly; "
                    f"retry after {self.breaker.cooldown}s",
                ),
            )
            return
        capacity = self.pool.workers + self.max_queue
        if self._inflight >= capacity:
            self.metrics.incr("requests.shed")
            self._send(
                conn,
                protocol.error_response(
                    request.id,
                    protocol.E_OVERLOADED,
                    f"admission queue full "
                    f"({self.pool.workers} workers + {self.max_queue} queued)",
                ),
            )
            return
        # One absolute expiry governs the wait *and* (forwarded as the
        # wire deadline) the worker-side solve budget.
        expiry: float | None = None
        if self.timeout is not None:
            expiry = time.time() + self.timeout
        if client_deadline is not None:
            expiry = (
                client_deadline if expiry is None else min(expiry, client_deadline)
            )
        if expiry is not None:
            params["deadline"] = expiry
        if request.op == "patch":
            future: Future = self._patch_pool.submit(self._run_patch, params)
            pool_handle = None
        else:
            try:
                future, pool_handle = self.pool.submit(request.op, params)
            except EngineError as exc:
                self._send(
                    conn,
                    protocol.error_response(request.id, exc.code, exc.message),
                )
                return
        pending = _Pending(
            conn,
            request.id,
            request.op,
            fingerprint,
            future,
            pool_handle,
            expiry,
            client_deadline,
        )
        self._inflight += 1
        self.metrics.set_gauge("requests.inflight", self._inflight)
        self.metrics.set_gauge(
            "queue.depth", max(0, self._inflight - self.pool.workers)
        )
        if expiry is not None:
            self._seq += 1
            heapq.heappush(self._expiries, (expiry, self._seq, pending))
        future.add_done_callback(lambda _f, p=pending: self._enqueue(p))

    def _run_patch(self, params: dict) -> dict:
        """Parent-side patch, returning a worker-style envelope."""
        try:
            return {"ok": True, "result": self.engine.dispatch("patch", params)}
        except EngineError as exc:
            return {"ok": False, "code": exc.code, "message": exc.message}
        except Exception as exc:  # fault isolation
            return {
                "ok": False,
                "code": protocol.E_INTERNAL,
                "message": f"{type(exc).__name__}: {exc}",
            }

    # -- completion / expiry ---------------------------------------------------

    def _enqueue(self, pending: _Pending) -> None:
        """Future done-callback: runs on an executor thread."""
        with self._completion_lock:
            self._completions.append(pending)
        self._wake()

    def _drain_completions(self) -> None:
        while True:
            with self._completion_lock:
                if not self._completions:
                    return
                pending = self._completions.popleft()
            self._finish(pending)

    def _settle(self, pending: _Pending) -> None:
        pending.done = True
        self._inflight -= 1
        self.metrics.set_gauge("requests.inflight", self._inflight)
        self.metrics.set_gauge(
            "queue.depth", max(0, self._inflight - self.pool.workers)
        )

    def _finish(self, pending: _Pending) -> None:
        if pending.done:
            return  # already answered by deadline expiry; drop the late result
        self._settle(pending)
        try:
            if pending.op == "patch":
                envelope = pending.future.result()
                if envelope.get("ok"):
                    result = envelope["result"]
                else:
                    raise EngineError(
                        envelope.get("code", protocol.E_INTERNAL),
                        envelope.get("message", "patch failed"),
                    )
            else:
                result = self.pool.collect(pending.future, pending.pool)
            response = protocol.ok_response(pending.request_id, result)
        except EngineError as exc:
            if exc.code == protocol.E_CANCELLED:
                self.metrics.incr("requests.cancelled")
            elif exc.code == protocol.E_BUDGET:
                self.metrics.incr("requests.budget_exceeded")
            elif exc.code == protocol.E_DEADLINE:
                self.metrics.incr("requests.deadline_exceeded")
            response = protocol.error_response(
                pending.request_id, exc.code, exc.message
            )
        except Exception as exc:  # fault isolation
            response = protocol.error_response(
                pending.request_id,
                protocol.E_INTERNAL,
                f"{type(exc).__name__}: {exc}",
            )
        if pending.fingerprint is not None:
            if response.ok:
                self.breaker.record_success(pending.fingerprint)
            elif (
                response.error is not None
                and response.error["code"] in _BREAKER_CODES
            ):
                self.breaker.record_failure(pending.fingerprint)
        self._send(pending.conn, response)

    def _expire_overdue(self) -> None:
        now = time.time()
        while self._expiries and self._expiries[0][0] <= now:
            _expiry, _seq, pending = heapq.heappop(self._expiries)
            if pending.done:
                continue
            self._settle(pending)
            pending.future.cancel()
            if (
                pending.client_deadline is not None
                and now >= pending.client_deadline
            ):
                self.metrics.incr("requests.deadline_exceeded")
                response = protocol.error_response(
                    pending.request_id,
                    protocol.E_DEADLINE,
                    "deadline expired while the request was running",
                )
            else:
                self.metrics.incr("requests.timeout")
                if pending.fingerprint is not None:
                    self.breaker.record_failure(pending.fingerprint)
                response = protocol.error_response(
                    pending.request_id,
                    protocol.E_TIMEOUT,
                    f"request did not finish within {self.timeout}s",
                )
            self._send(pending.conn, response)
