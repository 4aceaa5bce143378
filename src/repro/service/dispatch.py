"""Multi-process dispatch for analysis operations.

The threaded :class:`~repro.service.server.AnalysisServer` scales to
concurrent *clients* but not to concurrent *CPU*: every solve contends
for one GIL.  :class:`DispatchPool` is the process-level counterpart —
a :class:`~concurrent.futures.ProcessPoolExecutor` whose workers each
host a full :class:`~repro.service.engine.AnalysisEngine`, so solves
run truly in parallel and a crashed solve takes down one worker
process, not the service.

Design rules (see SERVICE.md "Scale-out"):

* **Workers never journal.**  The parent process is the single writer
  for hot patch sessions; ``patch`` must not be routed here.  Worker
  engines are built with ``journal_dir=None``.
* **Preload by fingerprint.**  The *parent* resolves each preload
  name to its machine fingerprint once and ships ``(name,
  fingerprint)`` pairs to the initializer; each worker compiles one
  algebra per *fingerprint*, so names sharing one machine warm exactly
  one algebra (``preload.deduped`` counts the skips).  Compiling is
  cheap next to a solve (milliseconds for the Table 1 properties).
  Unknown names are skipped (the lazy path will surface the typed
  ``unsupported`` error to whichever request first asks).
* **Typed envelopes, never exceptions.**  ``_worker_execute`` returns
  ``{"ok": True, "result": ...}`` or ``{"ok": False, "code": ...,
  "message": ...}`` — an exception escaping the worker function would
  come back as a pickled traceback with no wire code.  Each envelope
  piggybacks the worker's pid and a fresh
  :meth:`~repro.service.metrics.Metrics.snapshot`, which the parent
  folds into :meth:`DispatchPool.aggregate_metrics` so ``stats``
  reports aggregate truth across the pool.
* **Broken pool ⇒ typed ``unavailable`` + self-heal.**  A worker dying
  mid-solve (OOM kill, segfault, ``kill -9``) breaks the whole
  executor; every in-flight future raises.  :meth:`DispatchPool.execute`
  maps that to :data:`~repro.service.protocol.E_UNAVAILABLE` — a
  retryable refusal, not an ``internal-error`` — and atomically swaps
  in a fresh executor so the *next* request finds a healthy pool.

Cross-process cancellation tokens do not exist: per-request governance
inside a worker rides entirely on the wire params (an absolute
``deadline`` timestamp and/or a ``budget`` spec), which the worker
engine folds into its own :class:`~repro.core.budget.Budget` checks.
The caller's ``timeout`` only stops the *wait*, not the worker.
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Iterable, Sequence

from repro.service import protocol
from repro.service.engine import AnalysisEngine, EngineError
from repro.service.metrics import Metrics

__all__ = ["DispatchPool", "POOL_OPS"]

#: Operations safe to run in a pool worker.  ``patch`` is excluded by
#: design: hot patch sessions mutate journaled state and the parent is
#: the single journal writer.  ``stats``/``shutdown`` are control-plane
#: and answer in the parent.
POOL_OPS = frozenset({"check", "dataflow", "flow", "ping"})

# -- worker side --------------------------------------------------------------

_WORKER_ENGINE: AnalysisEngine | None = None


def _init_worker(
    preload_spec: Sequence[tuple],
    cache_size: int,
    snapshot_dir: str | os.PathLike | None,
) -> None:
    """Build this worker's engine and warm its per-property caches.

    Runs once per worker process.  ``preload_spec`` carries
    ``(name, fingerprint)`` pairs resolved by the parent
    (:func:`_resolve_preload`): the fingerprint dedupes names sharing
    one machine so the algebra is compiled once.  Preload failures are
    swallowed per-property: a bad name must not brick the worker (the
    first request for it gets the typed error instead).
    """
    global _WORKER_ENGINE
    # The parent owns worker lifecycle: a terminal Ctrl-C (delivered to
    # the whole foreground process group) must not kill workers before
    # the parent drains, nor echo the parent's inherited SIGINT/SIGTERM
    # handlers once per worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    engine = AnalysisEngine(
        cache_size=cache_size,
        snapshot_dir=snapshot_dir,
        journal_dir=None,  # single-writer rule: only the parent journals
    )
    resident: set[str] = set()
    for name, fingerprint in preload_spec:
        try:
            if fingerprint is not None and fingerprint in resident:
                # Same machine as an earlier name: the algebra is
                # already warm — only map the name, don't recompile.
                engine._property(name)
                engine.metrics.incr("preload.deduped")
                continue
            resident.add(engine.preload_property(name))
            engine.metrics.incr("preload.properties")
        except Exception:
            engine.metrics.incr("preload.failed")
    _WORKER_ENGINE = engine


def _worker_engine() -> AnalysisEngine:
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:  # pool built without the initializer
        _WORKER_ENGINE = AnalysisEngine()
    return _WORKER_ENGINE


def _worker_execute(op: str, params: dict) -> dict:
    """Run one operation in this worker, returning a typed envelope.

    Never raises: anything escaping here would surface in the parent as
    an unpickled traceback without a wire code, and some exception
    payloads (solver internals) may not pickle at all.
    """
    engine = _worker_engine()
    worker = {"pid": os.getpid()}
    try:
        result = engine.dispatch(op, params)
        envelope = {"ok": True, "result": result, "worker": worker}
    except EngineError as exc:
        envelope = {
            "ok": False,
            "code": exc.code,
            "message": exc.message,
            "worker": worker,
        }
    except Exception as exc:  # fault isolation, same contract as the server
        envelope = {
            "ok": False,
            "code": protocol.E_INTERNAL,
            "message": f"{type(exc).__name__}: {exc}",
            "worker": worker,
        }
    worker["metrics"] = engine.metrics.snapshot()
    return envelope


# -- parent side --------------------------------------------------------------


def _resolve_preload(names: Sequence[str]) -> tuple[tuple[str, str | None], ...]:
    """Resolve preload names to ``(name, fingerprint)`` pairs.

    Runs once in the parent and compiles nothing: the machine
    fingerprint is a hash of the property's DFA.  Unresolvable names
    ride through with a ``None`` fingerprint so the worker's lazy path
    still owns the typed error.
    """
    from repro.core.persist import machine_fingerprint
    from repro.modelcheck import PROPERTY_FACTORIES

    spec: list[tuple[str, str | None]] = []
    for name in names:
        factory = PROPERTY_FACTORIES.get(name)
        fingerprint: str | None = None
        if factory is not None:
            try:
                fingerprint = machine_fingerprint(factory().machine)
            except Exception:
                pass  # the worker's lazy path reports it, typed
        spec.append((name, fingerprint))
    return tuple(spec)


class DispatchPool:
    """A self-healing process pool of preloaded analysis engines.

    ``preload`` names properties (keys of
    :data:`repro.modelcheck.PROPERTY_FACTORIES`) whose machines and
    compiled algebras every worker warms at startup.

    Thread-safe: any number of server threads (or one selectors loop)
    may call :meth:`submit` / :meth:`execute` concurrently.
    """

    def __init__(
        self,
        workers: int = 2,
        preload: Iterable[str] = (),
        cache_size: int = 64,
        snapshot_dir: str | os.PathLike | None = None,
        metrics: Metrics | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.preload = tuple(preload)
        self.cache_size = cache_size
        self.snapshot_dir = snapshot_dir
        #: Parent-side metrics (pool lifecycle events, dispatch counts).
        self.metrics = metrics if metrics is not None else Metrics()
        self._lock = threading.Lock()
        self._closed = False
        #: Most recent metrics snapshot per worker pid.  Snapshots are
        #: cumulative per process, so keeping the *latest* per pid (and
        #: retaining dead workers' last words) makes the aggregate the
        #: total over all work the pool ever did.
        self._worker_metrics: dict[int, dict] = {}
        self.rebuilds = 0
        #: Resolved once: the fingerprints every initializer dedupes by.
        self._preload_spec = _resolve_preload(self.preload)
        self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self._preload_spec, self.cache_size, self.snapshot_dir),
        )

    # -- lifecycle -------------------------------------------------------------

    def worker_pids(self) -> list[int]:
        """Pids of the current executor's live worker processes."""
        with self._lock:
            processes = getattr(self._pool, "_processes", None) or {}
            return sorted(processes)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            pool = self._pool
        pool.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "DispatchPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _heal(self, broken: ProcessPoolExecutor) -> None:
        """Replace a broken executor with a fresh one (idempotent).

        Every future in flight when a worker dies raises
        ``BrokenProcessPool``, so several callers race here; only the
        first to present the still-current pool swaps it.
        """
        with self._lock:
            if self._closed or self._pool is not broken:
                return
            self._pool = self._new_pool()
            self.rebuilds += 1
        self.metrics.incr("pool.broken")
        broken.shutdown(wait=False, cancel_futures=True)

    # -- dispatch --------------------------------------------------------------

    def submit(self, op: str, params: dict) -> tuple[Future, ProcessPoolExecutor]:
        """Submit raw work, returning the future and the pool it rode.

        The pool handle is what :meth:`_heal` needs to self-heal exactly
        once per breakage; :meth:`execute` wraps all of this — use it
        unless you are multiplexing waits yourself (the front door is).
        """
        if op not in POOL_OPS:
            raise EngineError(
                protocol.E_BAD_REQUEST,
                f"operation {op!r} cannot run on the process pool",
            )
        with self._lock:
            if self._closed:
                raise EngineError(
                    protocol.E_SHUTTING_DOWN, "dispatch pool is closed"
                )
            pool = self._pool
        try:
            future = pool.submit(_worker_execute, op, params)
        except (BrokenExecutor, RuntimeError) as exc:
            self._heal(pool)
            raise EngineError(
                protocol.E_UNAVAILABLE,
                f"worker pool unavailable ({type(exc).__name__}); "
                "pool rebuilt, retry",
            ) from exc
        self.metrics.incr("pool.dispatched")
        return future, pool

    def collect(self, future: Future, pool: ProcessPoolExecutor) -> dict:
        """Unwrap a completed (or awaited) future into its result.

        Raises :class:`EngineError` with the envelope's wire code on a
        worker-reported failure, or ``unavailable`` if the worker died.
        """
        try:
            envelope = future.result()
        except BrokenExecutor as exc:
            self._heal(pool)
            self.metrics.incr("pool.lost")
            raise EngineError(
                protocol.E_UNAVAILABLE,
                "a pool worker died mid-request; pool rebuilt, retry",
            ) from exc
        return self._unwrap(envelope)

    def execute(
        self, op: str, params: dict, timeout: float | None = None
    ) -> dict:
        """Run one operation on the pool and wait for its result.

        ``timeout`` bounds the wait only — the worker keeps running
        (bound it too by passing a ``deadline``/``budget`` wire param).
        """
        future, pool = self.submit(op, params)
        try:
            envelope = future.result(timeout=timeout)
        except FutureTimeoutError as exc:
            future.cancel()
            raise EngineError(
                protocol.E_TIMEOUT,
                f"pool request did not finish within {timeout}s",
            ) from exc
        except BrokenExecutor as exc:
            self._heal(pool)
            self.metrics.incr("pool.lost")
            raise EngineError(
                protocol.E_UNAVAILABLE,
                "a pool worker died mid-request; pool rebuilt, retry",
            ) from exc
        return self._unwrap(envelope)

    def _unwrap(self, envelope: dict) -> dict:
        worker = envelope.get("worker") or {}
        pid = worker.get("pid")
        snapshot = worker.get("metrics")
        if isinstance(pid, int) and isinstance(snapshot, dict):
            with self._lock:
                self._worker_metrics[pid] = snapshot
        if envelope.get("ok"):
            return envelope["result"]
        raise EngineError(
            envelope.get("code", protocol.E_INTERNAL),
            envelope.get("message", "worker reported an untyped failure"),
        )

    # -- observability ---------------------------------------------------------

    def aggregate_metrics(self, base: Metrics | None = None) -> dict:
        """One merged snapshot: ``base`` (parent) + latest per worker.

        Each worker snapshot is cumulative for its process, and a fresh
        merge starts from zero every call, so re-merging the latest
        snapshot per pid *replaces* (never double-counts) that worker's
        contribution — the semantics :meth:`Metrics.merge` documents.
        """
        merged = Metrics()
        if base is not None:
            merged.merge(base.snapshot())
        merged.merge(self.metrics.snapshot())
        with self._lock:
            snapshots = list(self._worker_metrics.values())
        for snapshot in snapshots:
            merged.merge(snapshot)
        return merged.snapshot()

    def stats(self) -> dict:
        with self._lock:
            reporting = len(self._worker_metrics)
        return {
            "workers": self.workers,
            "pids": self.worker_pids(),
            "rebuilds": self.rebuilds,
            "preload": list(self.preload),
            "reporting": reporting,
        }
