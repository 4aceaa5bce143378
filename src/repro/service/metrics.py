"""Thread-safe counters and timers for the analysis service.

A single :class:`Metrics` instance is shared by the engine and the
server.  Counters are plain named integers; timers accumulate wall
seconds (and a count, so means can be derived).  The conventional keys:

* ``requests.total`` / ``requests.failed`` / ``requests.<op>`` — server
  traffic, per operation;
* ``cache.machine.hits`` / ``cache.machine.misses`` — compiled
  property-machine/monoid cache;
* ``cache.solve.hits`` / ``cache.solve.misses`` — solved-system cache
  keyed by (machine fingerprint, program hash);
* ``cache.snapshot.warm`` — cold solves avoided by reloading a
  :mod:`repro.core.persist` snapshot;
* ``cache.solve.evictions`` — LRU pressure;
* ``cache.snapshot.corrupt`` — snapshots rejected by checksum
  verification (each falls back to a cold solve);
* ``whatif.queries`` — speculative mark/rollback queries answered;
* ``requests.shed`` / ``requests.cancelled`` /
  ``requests.budget_exceeded`` / ``breaker.open`` — resource-governance
  outcomes (admission-queue overflow, revoked work that stopped, budget
  exhaustion, circuit-breaker refusals);
* ``preload.properties`` / ``preload.deduped`` / ``preload.failed`` —
  pool-worker warm-up: algebras compiled, names skipped because another
  name already warmed the same machine fingerprint, and per-name
  failures;
* timer ``solve`` — wall time spent building + solving systems (cache
  misses only); timer ``request`` — end-to-end handler time.

Gauges are instantaneous levels rather than monotone counts — the
conventional keys are ``requests.inflight`` (admitted requests not yet
answered) and ``queue.depth`` (admitted requests beyond the worker
count, i.e. waiting for a pool slot).

The ``stats`` operation additionally reports aggregated
:class:`repro.core.solver.SolverStats` counters (edges added,
transitive compositions, rollbacks) summed over every live cached
solver.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator


class Metrics:
    """Monotone named counters plus accumulating wall-time timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, int] = {}
        self._timers: dict[str, tuple[int, float]] = {}  # name -> (count, seconds)

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: int) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> int:
        with self._lock:
            return self._gauges.get(name, 0)

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            count, total = self._timers.get(name, (0, 0.0))
            self._timers[name] = (count + 1, total + seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def snapshot(self) -> dict:
        """A point-in-time copy, JSON-representable for the wire."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            timers = {
                name: {"count": count, "seconds": round(total, 6)}
                for name, (count, total) in self._timers.items()
            }
        return {"counters": counters, "gauges": gauges, "timers": timers}

    def merge(self, snapshot: dict) -> None:
        """Fold another process's :meth:`snapshot` into these metrics.

        Counters and timers are monotone, so they *add*; gauges are
        instantaneous levels with no cross-process meaning, so a merged
        gauge is the per-process level summed over contributors (the
        caller replaces, not accumulates, each worker's contribution by
        merging a fresh snapshot set — see
        :meth:`repro.service.dispatch.DispatchPool.aggregate_metrics`).
        Malformed sections are ignored: a worker that died mid-snapshot
        must not take ``stats`` down with it.
        """
        counters = snapshot.get("counters")
        gauges = snapshot.get("gauges")
        timers = snapshot.get("timers")
        with self._lock:
            if isinstance(counters, dict):
                for name, value in counters.items():
                    if isinstance(value, int):
                        self._counters[name] = self._counters.get(name, 0) + value
            if isinstance(gauges, dict):
                for name, value in gauges.items():
                    if isinstance(value, int):
                        self._gauges[name] = self._gauges.get(name, 0) + value
            if isinstance(timers, dict):
                for name, entry in timers.items():
                    if not isinstance(entry, dict):
                        continue
                    count = entry.get("count")
                    seconds = entry.get("seconds")
                    if isinstance(count, int) and isinstance(
                        seconds, (int, float)
                    ):
                        have_count, have_total = self._timers.get(name, (0, 0.0))
                        self._timers[name] = (
                            have_count + count,
                            have_total + float(seconds),
                        )
