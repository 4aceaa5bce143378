"""Crash-durable write-ahead journal for hot patch sessions.

The service's differential re-solving sessions (PR 5) are the hottest
state in the process: a client that holds a ``version`` token gets
~60× faster answers than a cold solve.  Before this module that state
lived only in memory — a crash or restart silently degraded every
client back to cold solves.  :class:`SessionJournal` makes the session
*lineage* durable:

* every accepted ``patch`` is logged **ahead of application** as a
  checksummed record (:func:`repro.core.persist.frame_journal_record`)
  carrying the property fingerprint, the ``base``/``version`` tokens,
  the edit payload (the full new source — replay needs nothing else)
  and the client's idempotency key;
* appends are **fsync-batched**: ``fsync_every=1`` (the default) makes
  each record durable before the patch is applied, larger values trade
  the tail of the journal for throughput (group commit) — a lost tail
  is always *detected* on recovery, never silently replayed;
* every ``compact_every`` records the journal is **compacted**: a
  format-4 solver snapshot is written next to it and the journal is
  rotated to a fresh file whose opening ``base`` record carries the session's
  current source and version, so replay cost is bounded by the
  compaction interval, not the session's lifetime;
* on startup :meth:`load` parses each journal into a
  :class:`JournalLineage` — or a typed quarantine verdict when the file
  is torn, bit-flipped, or structurally inconsistent.  The engine
  replays clean lineages through the normal ``apply_source`` path and
  serves quarantined fingerprints from a typed cold-solve fallback
  instead of ever answering from suspect state.

Rotation reuses :data:`repro.core.persist._rename` as its commit point,
so the existing fault-injection seam
(:meth:`repro.testing.faults.FaultInjector.crash_during_dump`) covers
mid-compaction crashes too; the append-path fsync goes through the
module-level :data:`_fsync` seam so a crash *between append and fsync*
is injectable as well.

Clock-free by construction: records carry sequence numbers, not
timestamps, so replay is deterministic and journals diff cleanly.
"""

from __future__ import annotations

import os
import pathlib
import threading
from dataclasses import dataclass, field
from typing import IO, Any

from repro.core import persist
from repro.core.errors import JournalCorrupt, SnapshotCorrupt

#: Fault-injection seam for the append path (crash between append and
#: fsync); always ``os.fsync`` in production.
_fsync = os.fsync

#: Quarantine slugs — the typed reasons a journal is refused at
#: recovery.  Each one is exercised by a kill-and-restart test.
Q_TORN = "torn-record"
Q_CORRUPT = "corrupt-record"
Q_MISSING_BASE = "missing-base"
Q_BAD_LINEAGE = "bad-lineage"
Q_REPLAY_FAILED = "replay-failed"
Q_SNAPSHOT_MISMATCH = "snapshot-mismatch"

QUARANTINE_SLUGS = (
    Q_TORN,
    Q_CORRUPT,
    Q_MISSING_BASE,
    Q_BAD_LINEAGE,
    Q_REPLAY_FAILED,
    Q_SNAPSHOT_MISMATCH,
)


@dataclass
class JournalLineage:
    """A parsed, structurally verified journal: base state + patch suffix."""

    fingerprint: str
    property_name: str
    base_version: str
    base_source: str
    #: Snapshot file name (relative to the journal directory) the base
    #: record points at, when the rotation was a compaction.
    snapshot: str | None
    #: Patch records past the base, in append order; each is the raw
    #: record dict (``base``/``version``/``source``/``key``).
    patches: list[dict] = field(default_factory=list)

    @property
    def version(self) -> str:
        """The version token the session held when the journal went quiet."""
        return self.patches[-1]["version"] if self.patches else self.base_version


@dataclass
class Quarantined:
    """A journal recovery refusal: the typed reason and its evidence."""

    fingerprint: str
    slug: str
    detail: str


class SessionJournal:
    """One write-ahead journal per property fingerprint, under one dir.

    Thread-safe: a single lock guards the per-fingerprint file handles
    and counters.  The engine already serializes per-session work on the
    session's own lock, so contention here is cross-session only.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        fsync_every: int = 1,
        compact_every: int = 256,
    ):
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every!r}")
        if compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every!r}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        self.compact_every = compact_every
        self._lock = threading.Lock()
        self._files: dict[str, IO[bytes]] = {}
        self._unsynced: dict[str, int] = {}
        self._since_base: dict[str, int] = {}
        self._seq: dict[str, int] = {}
        #: Monotone counters the engine folds into its metrics snapshot.
        self.appends = 0
        self.fsyncs = 0
        self.compactions = 0

    # -- paths -----------------------------------------------------------------

    def wal_path(self, fingerprint: str) -> pathlib.Path:
        return self.directory / f"{fingerprint}.wal"

    def snapshot_path(self, fingerprint: str, version: str) -> pathlib.Path:
        return self.directory / f"{fingerprint}-{version}.ckpt"

    def quarantine_path(self, fingerprint: str) -> pathlib.Path:
        return self.directory / f"{fingerprint}.wal.quarantined"

    # -- write path ------------------------------------------------------------

    def _close_handle(self, fingerprint: str) -> None:
        handle = self._files.pop(fingerprint, None)
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _rotate(
        self,
        fingerprint: str,
        property_name: str,
        version: str,
        source: str,
        snapshot: str | None,
    ) -> None:
        """Atomically replace the journal with a fresh base record.

        Uses the same write-temp → fsync → :data:`persist._rename`
        commit point as snapshots, so a crash anywhere in here leaves
        either the old journal or the new one — never a mix — and the
        fault harness's rename seam covers it.
        """
        record = {
            "kind": "base",
            "fingerprint": fingerprint,
            "property": property_name,
            "version": version,
            "source": source,
            "snapshot": snapshot,
        }
        blob = (
            persist.JOURNAL_MAGIC.encode("ascii")
            + b"\n"
            + persist.frame_journal_record(record)
        )
        path = self.wal_path(fingerprint)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, blob)
                _fsync(fd)
            finally:
                os.close(fd)
            persist._rename(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._close_handle(fingerprint)
        self._unsynced[fingerprint] = 0
        self._since_base[fingerprint] = 0
        self._seq[fingerprint] = 0

    def begin(
        self,
        fingerprint: str,
        property_name: str,
        version: str,
        source: str,
        snapshot: str | None = None,
    ) -> None:
        """Start (or restart) a session's journal at a known-good state.

        Called whenever the engine (re)builds a session cold — startup,
        ``cold-start``/``base-mismatch``/``patch-failed`` fallbacks,
        post-quarantine — and as the rotation half of :meth:`compact`.
        """
        with self._lock:
            self._rotate(fingerprint, property_name, version, source, snapshot)

    def append(
        self,
        fingerprint: str,
        base: str,
        version: str,
        source: str,
        key: str | None,
    ) -> int:
        """Log one accepted patch *ahead of its application*.

        Returns the records-since-base count so the caller can decide to
        compact.  Raises :class:`KeyError` if :meth:`begin` has not run
        for this fingerprint (the engine always begins on cold build).
        """
        with self._lock:
            handle = self._files.get(fingerprint)
            if handle is None:
                path = self.wal_path(fingerprint)
                if not path.exists():
                    raise KeyError(
                        f"journal for {fingerprint!r} was never begun"
                    )
                handle = self._files[fingerprint] = open(path, "ab")
            seq = self._seq.get(fingerprint, 0) + 1
            record = {
                "kind": "patch",
                "seq": seq,
                "base": base,
                "version": version,
                "source": source,
                "key": key,
            }
            handle.write(persist.frame_journal_record(record))
            handle.flush()
            self._seq[fingerprint] = seq
            self.appends += 1
            pending = self._unsynced.get(fingerprint, 0) + 1
            if pending >= self.fsync_every:
                _fsync(handle.fileno())
                self.fsyncs += 1
                pending = 0
            self._unsynced[fingerprint] = pending
            count = self._since_base.get(fingerprint, 0) + 1
            self._since_base[fingerprint] = count
            return count

    def flush(self, fingerprint: str | None = None) -> None:
        """Force pending appends durable (drain/checkpoint path)."""
        with self._lock:
            targets = (
                [fingerprint] if fingerprint is not None else list(self._files)
            )
            for fp in targets:
                handle = self._files.get(fp)
                if handle is not None and self._unsynced.get(fp, 0):
                    handle.flush()
                    _fsync(handle.fileno())
                    self.fsyncs += 1
                    self._unsynced[fp] = 0

    def should_compact(self, count_since_base: int) -> bool:
        return count_since_base >= self.compact_every

    def compact(
        self,
        fingerprint: str,
        property_name: str,
        version: str,
        source: str,
        solver: Any,
    ) -> pathlib.Path:
        """Snapshot the session's solver and rotate the journal.

        The snapshot is the recovery *oracle*: replay rebuilds the base
        from source and verifies its canonical solved form against the
        snapshot before trusting the suffix.  Old snapshots for the
        fingerprint are removed after the rotation commits, so a crash
        mid-compaction leaves at worst an extra (complete, checksummed)
        snapshot file.
        """
        snapshot = self.snapshot_path(fingerprint, version)
        persist.write_solver_snapshot(snapshot, solver)
        with self._lock:
            self._rotate(
                fingerprint, property_name, version, source, snapshot.name
            )
            self.compactions += 1
        for old in self.directory.glob(f"{fingerprint}-*.ckpt"):
            if old.name != snapshot.name:
                try:
                    old.unlink()
                except OSError:
                    pass
        return snapshot

    def close(self) -> None:
        with self._lock:
            for fingerprint in list(self._files):
                handle = self._files.get(fingerprint)
                if handle is not None and self._unsynced.get(fingerprint, 0):
                    try:
                        handle.flush()
                        _fsync(handle.fileno())
                    except OSError:
                        pass
                    self._unsynced[fingerprint] = 0
                self._close_handle(fingerprint)

    # -- recovery --------------------------------------------------------------

    def fingerprints(self) -> list[str]:
        """Fingerprints with a journal on disk, sorted for determinism."""
        return sorted(p.name[: -len(".wal")] for p in self.directory.glob("*.wal"))

    def quarantine(self, fingerprint: str, slug: str, detail: str) -> Quarantined:
        """Move a suspect journal aside so it is never replayed again.

        The damaged file is preserved (renamed, not deleted) for
        operator forensics; the next patch request starts the session
        cold and :meth:`begin`\\ s a fresh journal.
        """
        with self._lock:
            self._close_handle(fingerprint)
            self._unsynced.pop(fingerprint, None)
            self._since_base.pop(fingerprint, None)
            self._seq.pop(fingerprint, None)
        path = self.wal_path(fingerprint)
        try:
            os.replace(path, self.quarantine_path(fingerprint))
        except OSError:
            pass
        for old in self.directory.glob(f"{fingerprint}-*.ckpt"):
            try:
                old.unlink()
            except OSError:
                pass
        return Quarantined(fingerprint, slug, detail)

    def load(self, fingerprint: str) -> JournalLineage | Quarantined:
        """Parse one journal into a lineage, or quarantine it.

        Structural verification only — replay (and the snapshot oracle
        check) is the engine's job, because it owns the property
        registry and the solve budget.  Any damage quarantines: a torn
        or truncated tail record (:data:`Q_TORN`), a bit-flipped record
        (:data:`Q_CORRUPT`), a journal without an opening base record
        (:data:`Q_MISSING_BASE`), or patch records whose base/version
        chain does not link up (:data:`Q_BAD_LINEAGE`).
        """
        path = self.wal_path(fingerprint)
        try:
            records, damage = persist.read_journal(path)
        except JournalCorrupt as exc:
            return self.quarantine(fingerprint, Q_CORRUPT, exc.detail)
        except OSError as exc:
            return self.quarantine(fingerprint, Q_CORRUPT, str(exc))
        if damage is not None:
            # A torn tail is the one damage class whose *prefix* is
            # still trustworthy — but the lost record may belong to a
            # patch whose response already reached the client (fsync
            # batching), so the conservative contract is: detect,
            # refuse, fall back cold.  Never serve maybe-stale state.
            return self.quarantine(fingerprint, Q_TORN, damage)
        if not records or records[0].get("kind") != "base":
            return self.quarantine(
                fingerprint, Q_MISSING_BASE, "journal has no opening base record"
            )
        base = records[0]
        required = ("fingerprint", "property", "version", "source")
        if any(not isinstance(base.get(k), str) for k in required):
            return self.quarantine(
                fingerprint, Q_MISSING_BASE, "base record is missing fields"
            )
        if base["fingerprint"] != fingerprint:
            return self.quarantine(
                fingerprint,
                Q_BAD_LINEAGE,
                f"base record names fingerprint {base['fingerprint']!r}",
            )
        lineage = JournalLineage(
            fingerprint=fingerprint,
            property_name=base["property"],
            base_version=base["version"],
            base_source=base["source"],
            snapshot=base.get("snapshot"),
        )
        version = lineage.base_version
        for index, record in enumerate(records[1:]):
            if record.get("kind") != "patch":
                return self.quarantine(
                    fingerprint,
                    Q_BAD_LINEAGE,
                    f"record {index + 1} is {record.get('kind')!r}, "
                    "expected a patch",
                )
            if record.get("base") != version or not isinstance(
                record.get("version"), str
            ) or not isinstance(record.get("source"), str):
                return self.quarantine(
                    fingerprint,
                    Q_BAD_LINEAGE,
                    f"patch {index + 1} does not chain from {version!r}",
                )
            lineage.patches.append(record)
            version = record["version"]
        with self._lock:
            # Resume the write-side counters so post-recovery appends
            # continue the chain (the file ends with a clean newline —
            # read_journal vouched for that above).
            self._close_handle(fingerprint)
            if lineage.patches:
                last = lineage.patches[-1].get("seq")
                self._seq[fingerprint] = (
                    last if isinstance(last, int) else len(lineage.patches)
                )
            else:
                self._seq[fingerprint] = 0
            self._since_base[fingerprint] = len(lineage.patches)
            self._unsynced[fingerprint] = 0
        return lineage

    def read_snapshot_oracle(self, lineage: JournalLineage) -> Any | None:
        """The compaction snapshot's solver, or None when unavailable.

        A corrupt or missing snapshot does not quarantine by itself —
        the base *source* is authoritative and replay re-solves it —
        but a snapshot that loads and then *disagrees* with the rebuilt
        base is evidence one of the two is wrong, which the engine
        treats as :data:`Q_SNAPSHOT_MISMATCH`.
        """
        if lineage.snapshot is None:
            return None
        path = self.directory / lineage.snapshot
        if not path.exists():
            return None
        try:
            return persist.load_solver_snapshot(path)
        except (SnapshotCorrupt, ValueError, OSError):
            return None
