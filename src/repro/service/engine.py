"""The embeddable analysis engine: caching, warm-start, what-if.

:class:`AnalysisEngine` is a facade over the three applications
(:mod:`repro.modelcheck`, :mod:`repro.dataflow`, :mod:`repro.flow`)
designed for a long-lived process answering many queries:

* **machine cache** — compiled property machines and their
  representative-function monoids are built once per machine
  fingerprint (:func:`repro.core.persist.machine_fingerprint`) and
  shared across every request that uses the same property;
* **solve cache** — solved constraint systems are kept in an LRU keyed
  by ``(machine fingerprint, program content hash)``; a repeated query
  for the same (machine, program) pair reuses the solved form and pays
  only the query cost;
* **snapshot warm-start** — with a ``snapshot_dir``, cold solves of
  non-parametric check systems are persisted via
  :func:`repro.core.persist.dump_solver`; a later engine (or process)
  reloads the solved form instead of re-solving, with the fingerprint
  verified so a snapshot is never replayed against the wrong machine.
  Snapshots carry no provenance, so only ``check`` requests without
  ``traces`` use them; a ``traces`` request is cached separately and
  always solves with provenance, and a no-traces solve records none;
* **what-if queries** — speculative constraints are layered on a cached
  solved system under :meth:`Solver.mark`/``rollback`` (flow ``assume``
  edges), answering incremental questions without re-solving the base
  program;
* **patch sessions** — one hot patchable
  :class:`~repro.incremental.diff.StableCheck` per property machine;
  the ``patch`` request advances it to an edited program by
  differential re-solving, falling back to a cold solve (never an
  error) when the session is missing, version-mismatched, or the
  repair fails.

The engine is thread-safe: the cache maps are guarded by one lock, and
each cached entry has its own lock serializing solves and queries on
that entry (solver and query structures are not internally
thread-safe), so requests against *different* systems run concurrently.
"""

from __future__ import annotations

import hashlib
import pathlib
import threading
import time
from collections import OrderedDict
from typing import Any, Callable

from repro.cfg import build_cfg
from repro.core.annotations import (
    CompiledGenKillAlgebra,
    CompiledMonoidAlgebra,
)
from repro.core.budget import Budget
from repro.core.errors import (
    SnapshotCorrupt,
    SolverBudgetExceeded,
    SolverCancelled,
)
from repro.core.parametric import ParametricAlgebra
from repro.core.persist import (
    dump_solver,
    load_solver,
    machine_fingerprint,
    read_snapshot,
    write_snapshot,
)
from repro.core.solver import Solver, SolverStats
from repro.dfa.gallery import one_bit_machine
from repro.gcpause import paused
from repro.modelcheck import PROPERTY_FACTORIES, AnnotatedChecker
from repro.modelcheck.properties import Property
from repro.service import protocol
from repro.service.journal import (
    Q_BAD_LINEAGE,
    Q_REPLAY_FAILED,
    Q_SNAPSHOT_MISMATCH,
    Quarantined,
    SessionJournal,
)
from repro.service.metrics import Metrics

#: Cap on remembered idempotent patch results per hot session.
_IDEMPOTENCY_WINDOW = 64


class EngineError(Exception):
    """An analysis request the engine cannot serve, with its wire code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def program_hash(source: str) -> str:
    """Content hash identifying a program text in cache keys."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


class _Entry:
    """One cached solved system: the analysis object plus its own lock."""

    __slots__ = ("lock", "analysis", "solver", "results")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.analysis: Any = None
        self.solver: Solver | None = None
        self.results: dict[Any, Any] = {}


class _DeltaEntry:
    """One hot patchable session (per property machine).

    Unlike :class:`_Entry`, the solved system here *mutates* across
    requests: each ``patch`` request advances the
    :class:`~repro.incremental.diff.StableCheck` to the edited program.
    ``phash`` is the program hash the session currently embodies — the
    version token echoed to clients.  ``check`` is ``None`` after a
    failed patch until the next request rebuilds it cold.

    ``idem`` remembers the last few patch results by idempotency key so
    a client retry of an already-applied patch answers from the record
    instead of degrading to ``base-mismatch``; ``last_key`` survives
    journal recovery (the in-memory window does not) so the
    crashed-mid-response retry still short-circuits.
    """

    __slots__ = ("lock", "check", "phash", "prop_name", "last_key", "idem")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.check: Any = None
        self.phash: str | None = None
        self.prop_name: str | None = None
        self.last_key: str | None = None
        self.idem: "OrderedDict[str, dict]" = OrderedDict()


class AnalysisEngine:
    """Cached, concurrent front door to the constraint solver."""

    def __init__(
        self,
        cache_size: int = 64,
        snapshot_dir: str | pathlib.Path | None = None,
        metrics: Metrics | None = None,
        journal_dir: str | pathlib.Path | None = None,
        journal_fsync_every: int = 1,
        journal_compact_every: int = 256,
        recover: bool = True,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        self.cache_size = cache_size
        self.snapshot_dir = (
            pathlib.Path(snapshot_dir) if snapshot_dir is not None else None
        )
        self.metrics = metrics if metrics is not None else Metrics()
        self._lock = threading.Lock()
        # property name -> (Property, machine fingerprint)
        self._properties: dict[str, tuple[Property, str]] = {}
        # algebra cache key -> compiled annotation algebra
        self._algebras: dict[Any, Any] = {}
        self._solved: "OrderedDict[Any, _Entry]" = OrderedDict()
        # machine fingerprint -> hot patchable session (one per property)
        self._delta: dict[str, _DeltaEntry] = {}
        self.started_at = time.monotonic()
        self.recoveries = 0
        # fingerprint -> quarantine slug; surfaced as the typed
        # ``quarantined-<slug>`` fallback on the next patch request.
        self._quarantined: dict[str, str] = {}
        self.journal: SessionJournal | None = (
            SessionJournal(
                journal_dir,
                fsync_every=journal_fsync_every,
                compact_every=journal_compact_every,
            )
            if journal_dir is not None
            else None
        )
        if self.journal is not None and recover:
            self._recover_sessions()

    def close(self) -> None:
        """Flush and close the session journal (if any)."""
        if self.journal is not None:
            self.journal.close()

    # -- durability: journal recovery ------------------------------------------

    def _quarantine_session(self, fingerprint: str, slug: str, detail: str) -> None:
        assert self.journal is not None
        self.journal.quarantine(fingerprint, slug, detail)
        self._quarantined[fingerprint] = slug
        self.metrics.incr("journal.quarantined")
        self.metrics.incr(f"journal.quarantined.{slug}")

    def _recover_sessions(self) -> None:
        """Rebuild hot patch sessions from their journals at startup.

        For each journal: structurally verify it (:meth:`SessionJournal.load`),
        rebuild the base state *cold from the journaled source* — the
        only path that leaves the session patchable, since loaded
        snapshots carry no provenance — then replay the patch suffix
        through the normal ``apply_source`` pipeline.  The compaction
        snapshot, when present and loadable, serves as an integrity
        oracle: its canonical solved form must agree with the rebuilt
        base.  Any failure quarantines the fingerprint with a typed
        slug; the next patch request answers cold with a
        ``quarantined-<slug>`` fallback instead of serving suspect
        state.
        """
        from repro.incremental import StableCheck

        journal = self.journal
        assert journal is not None
        for fp in journal.fingerprints():
            outcome = journal.load(fp)
            if isinstance(outcome, Quarantined):
                self._quarantined[fp] = outcome.slug
                self.metrics.incr("journal.quarantined")
                self.metrics.incr(f"journal.quarantined.{outcome.slug}")
                continue
            lineage = outcome
            if PROPERTY_FACTORIES.get(lineage.property_name) is None:
                self._quarantine_session(
                    fp,
                    Q_REPLAY_FAILED,
                    f"unknown property {lineage.property_name!r}",
                )
                continue
            prop, fingerprint = self._property(lineage.property_name)
            if fingerprint != fp:
                self._quarantine_session(
                    fp,
                    Q_BAD_LINEAGE,
                    f"journal names property {lineage.property_name!r} whose "
                    f"machine fingerprint is {fingerprint!r}, not {fp!r}",
                )
                continue
            if program_hash(lineage.base_source) != lineage.base_version:
                self._quarantine_session(
                    fp,
                    Q_BAD_LINEAGE,
                    "base source does not hash to the base version token",
                )
                continue
            if any(
                program_hash(record["source"]) != record["version"]
                for record in lineage.patches
            ):
                self._quarantine_session(
                    fp,
                    Q_BAD_LINEAGE,
                    "a patch source does not hash to its version token",
                )
                continue
            mismatch = False
            try:
                with self.metrics.time("journal.replay"):
                    check = StableCheck(
                        lineage.base_source,
                        prop,
                        algebra=self._check_algebra(prop, fp),
                    )
                    oracle = journal.read_snapshot_oracle(lineage)
                    if oracle is not None and set(oracle.canonical_facts()) != set(
                        check.solver.canonical_facts()
                    ):
                        mismatch = True
                    else:
                        for record in lineage.patches:
                            check.apply_source(record["source"])
            except Exception as exc:
                self._quarantine_session(
                    fp, Q_REPLAY_FAILED, f"{type(exc).__name__}: {exc}"
                )
                continue
            if mismatch:
                self._quarantine_session(
                    fp,
                    Q_SNAPSHOT_MISMATCH,
                    "compaction snapshot disagrees with the replayed base solve",
                )
                continue
            entry = _DeltaEntry()
            entry.check = check
            entry.phash = lineage.version
            entry.prop_name = lineage.property_name
            entry.last_key = (
                lineage.patches[-1].get("key") if lineage.patches else None
            )
            with self._lock:
                self._delta[fp] = entry
            self.recoveries += 1
            self.metrics.incr("journal.recovered")

    def checkpoint_sessions(self) -> int:
        """Compact every live hot session to a snapshot (the drain path).

        Returns the number of sessions checkpointed.  Each compaction
        rotates the session's journal to a single base record carrying
        the current source and version, so the next startup replays
        nothing — it re-solves the base and verifies it against the
        snapshot oracle.
        """
        if self.journal is None:
            return 0
        with self._lock:
            sessions = list(self._delta.items())
        checkpointed = 0
        for fingerprint, entry in sessions:
            with entry.lock:
                if (
                    entry.check is None
                    or entry.phash is None
                    or entry.prop_name is None
                ):
                    continue
                try:
                    with self.metrics.time("journal.compact"):
                        self.journal.compact(
                            fingerprint,
                            entry.prop_name,
                            entry.phash,
                            entry.check.source,
                            entry.check.solver,
                        )
                except (TypeError, OSError):
                    self.metrics.incr("journal.compact_failed")
                    continue
            checkpointed += 1
        self.journal.flush()
        return checkpointed

    # -- machine / monoid caching -------------------------------------------

    def _property(self, name: str) -> tuple[Property, str]:
        with self._lock:
            cached = self._properties.get(name)
        if cached is not None:
            self.metrics.incr("cache.machine.hits")
            return cached
        factory = PROPERTY_FACTORIES.get(name)
        if factory is None:
            raise EngineError(
                protocol.E_UNSUPPORTED,
                f"unknown property {name!r} "
                f"(known: {', '.join(sorted(PROPERTY_FACTORIES))})",
            )
        self.metrics.incr("cache.machine.misses")
        prop = factory()
        fingerprint = machine_fingerprint(prop.machine)
        with self._lock:
            self._properties.setdefault(name, (prop, fingerprint))
            return self._properties[name]

    def _check_algebra(self, prop: Property, fingerprint: str) -> Any:
        """The shared (per-fingerprint) algebra for a check property.

        Non-parametric properties get the §8-specialized
        :class:`CompiledMonoidAlgebra`; its composition table is cached
        alongside the machine fingerprint, so the compile cost is paid
        once per property and every request runs table-driven.
        """
        key = (
            ("param", fingerprint, tuple(sorted(prop.parametric_symbols)))
            if prop.parametric_symbols
            else ("compiled", fingerprint)
        )
        with self._lock:
            algebra = self._algebras.get(key)
        if algebra is not None:
            self.metrics.incr("cache.machine.hits")
            return algebra
        self.metrics.incr("cache.machine.misses")
        if prop.parametric_symbols:
            algebra = ParametricAlgebra(prop.machine, prop.parametric_symbols)
        else:
            algebra = CompiledMonoidAlgebra(prop.machine)
        with self._lock:
            return self._algebras.setdefault(key, algebra)

    def preload_property(self, name: str) -> str:
        """Warm the machine + compiled-algebra caches for one property.

        Returns the machine fingerprint so callers can dedupe preload
        lists whose properties share one machine.
        """
        prop, fingerprint = self._property(name)
        self._check_algebra(prop, fingerprint)
        return fingerprint

    def _bitvector_algebra(self, n_bits: int) -> CompiledGenKillAlgebra:
        key = ("bitvector", n_bits)
        with self._lock:
            algebra = self._algebras.get(key)
        if algebra is not None:
            self.metrics.incr("cache.machine.hits")
            return algebra
        self.metrics.incr("cache.machine.misses")
        algebra = CompiledGenKillAlgebra(n_bits, bit_machine=one_bit_machine())
        with self._lock:
            return self._algebras.setdefault(key, algebra)

    # -- solve cache ---------------------------------------------------------

    def _entry(self, key: Any) -> tuple[_Entry, bool]:
        """The cache entry for ``key`` (created if absent) and hit flag."""
        with self._lock:
            entry = self._solved.get(key)
            if entry is not None:
                self._solved.move_to_end(key)
                return entry, True
            entry = _Entry()
            self._solved[key] = entry
            while len(self._solved) > self.cache_size:
                self._solved.popitem(last=False)
                self.metrics.incr("cache.solve.evictions")
            return entry, False

    def _solve(self, key: Any, builder: Callable[[], Any]) -> _Entry:
        """Get or build the solved system for ``key``.

        The build runs under the entry's lock, so concurrent requests
        for the same key block until one of them has solved, then all
        share the result.  ``builder`` returns the analysis object; it
        must leave a ``solver`` attribute reachable (``.solver`` or
        ``.system.solver``).
        """
        entry, _hit = self._entry(key)
        with entry.lock:
            if entry.analysis is None:
                self.metrics.incr("cache.solve.misses")
                # Interrupts surface as typed wire errors; the entry is
                # left unbuilt, so a retry (with a fresh budget) re-runs
                # the builder rather than reusing a half-solved system.
                try:
                    with self.metrics.time("solve"):
                        entry.analysis = builder()
                except SolverCancelled as exc:
                    self.metrics.incr("solve.cancelled")
                    raise EngineError(
                        protocol.E_CANCELLED, f"solve cancelled: {exc.progress}"
                    ) from exc
                except SolverBudgetExceeded as exc:
                    self.metrics.incr("solve.budget_exceeded")
                    raise EngineError(
                        protocol.E_BUDGET,
                        f"{exc} (progress: {exc.progress})",
                    ) from exc
                entry.solver = getattr(entry.analysis, "solver", None)
                if entry.solver is None:
                    entry.solver = entry.analysis.system.solver
            else:
                self.metrics.incr("cache.solve.hits")
        return entry

    def _snapshot_path(self, fingerprint: str, phash: str) -> pathlib.Path | None:
        if self.snapshot_dir is None:
            return None
        return self.snapshot_dir / f"check-{fingerprint}-{phash}.json"

    # -- operations -----------------------------------------------------------

    @staticmethod
    def _parse_cfg(source: str):
        try:
            return build_cfg(source)
        except ValueError as exc:  # ParseError / LexError
            raise EngineError(protocol.E_PARSE, str(exc)) from exc

    def check(
        self,
        program: str,
        property: str,
        traces: bool = False,
        max_findings: int | None = None,
        budget: Budget | None = None,
    ) -> dict:
        """Model-check ``program`` against a registered property."""
        prop, fingerprint = self._property(property)
        phash = program_hash(program)
        # Witnesses need provenance, which neither a snapshot nor a
        # no-traces solve carries: the two requests solve separately.
        key = ("check", fingerprint, phash, traces)

        def build() -> AnnotatedChecker:
            cfg = self._parse_cfg(program)
            snapshot = None if traces else self._snapshot_path(fingerprint, phash)
            if (
                snapshot is not None
                and snapshot.exists()
                and not prop.parametric_symbols
            ):
                try:
                    loaded = load_solver(
                        read_snapshot(snapshot), expected_fingerprint=fingerprint
                    )
                except SnapshotCorrupt:
                    # Checksum/size mismatch: quarantine the file so the
                    # corruption is counted once, then solve cold.
                    self.metrics.incr("cache.snapshot.corrupt")
                    try:
                        snapshot.unlink()
                    except OSError:
                        pass
                except (ValueError, OSError):
                    pass  # stale snapshot: fall through to cold
                else:
                    self.metrics.incr("cache.snapshot.warm")
                    checker = AnnotatedChecker(
                        cfg, prop, solver=loaded, budget=budget
                    )
                    if loaded.pending_count():
                        # A checkpoint of an interrupted solve: finish the
                        # drain (under this request's budget) before queries.
                        loaded.resume(budget)
                    return checker
            checker = AnnotatedChecker(
                cfg,
                prop,
                algebra=self._check_algebra(prop, fingerprint),
                record_reasons=traces,
                budget=budget,
            )
            if snapshot is not None and not prop.parametric_symbols:
                try:
                    self.snapshot_dir.mkdir(parents=True, exist_ok=True)
                    write_snapshot(snapshot, dump_solver(checker.solver))
                    self.metrics.incr("cache.snapshot.saved")
                except (TypeError, OSError):
                    pass  # snapshots are best-effort
            return checker

        entry = self._solve(key, build)
        with entry.lock:
            cached = entry.results.get(("check", traces))
            if cached is None:
                result = entry.analysis.check(traces=traces)
                violations = [
                    {
                        "where": v.node.describe(),
                        "line": v.node.line,
                        "instantiation": (
                            dict(v.instantiation) if v.instantiation else None
                        ),
                        "trace": [step.describe() for step in v.trace],
                    }
                    for v in result.violations
                ]
                cached = {
                    "property": property,
                    "fingerprint": fingerprint,
                    "program": phash,
                    "has_violation": result.has_violation,
                    "violations": violations,
                    "constraints": result.constraints,
                    "facts": result.facts,
                }
                entry.results[("check", traces)] = cached
        response = dict(cached)
        if max_findings is not None:
            response["violations"] = response["violations"][:max_findings]
        return response

    def _journal_append(
        self,
        fingerprint: str,
        prop_name: str,
        check: Any,
        base: str | None,
        version: str,
        source: str,
        key: str | None,
    ) -> int:
        """Write-ahead log one accepted patch; 0 on (counted) failure."""
        assert self.journal is not None
        try:
            try:
                return self.journal.append(
                    fingerprint, base or "", version, source, key
                )
            except KeyError:
                # The session predates the journal (journal_dir added to
                # a warm engine, or the directory was wiped): open it at
                # the session's *current* state, then log the patch.
                self.journal.begin(
                    fingerprint, prop_name, base or "", check.source
                )
                return self.journal.append(
                    fingerprint, base or "", version, source, key
                )
        except OSError:
            self.metrics.incr("journal.append_failed")
            return 0

    def patch(
        self,
        program: str,
        property: str,
        base: str | None = None,
        key: str | None = None,
        budget: Budget | None = None,
    ) -> dict:
        """Differentially re-check an edited ``program``.

        Keeps one hot :class:`~repro.incremental.diff.StableCheck` per
        property machine and advances it to ``program`` by constraint
        patching (diff the stable encodings, DRed-repair the solved
        form).  Falls back to a cold solve — never an error — when
        there is no hot session (``cold-start``, or
        ``quarantined-<slug>`` when recovery refused the session's
        journal), the client's ``base`` version token does not match
        the session (``base-mismatch``), or the patch itself fails
        (``patch-failed``, after discarding the possibly-mid-repair
        session).

        With a journal, every accepted patch is logged *ahead of
        application*; ``key`` is the client's idempotency token — a
        retry of an already-applied patch (same key, same program)
        answers from the session/record with ``replayed: true`` instead
        of degrading to ``base-mismatch``.
        """
        from repro.incremental import StableCheck
        from repro.incremental.delta import UnsupportedConstraintError

        prop, fingerprint = self._property(property)
        if prop.parametric_symbols:
            raise EngineError(
                protocol.E_UNSUPPORTED,
                f"property {property!r} is parametric; patch supports "
                "plain properties only",
            )
        # Validate the edited program up front: a parse error must be a
        # clean refusal that leaves the hot session untouched.
        self._parse_cfg(program)
        phash = program_hash(program)
        with self._lock:
            entry = self._delta.get(fingerprint)
            if entry is None:
                entry = self._delta.setdefault(fingerprint, _DeltaEntry())
        with entry.lock:
            fallback: str | None = None
            patch_stats: dict | None = None
            replayed = False
            check = entry.check
            old_phash = entry.phash
            if key is not None:
                recorded = entry.idem.get(key)
                if recorded is not None and recorded.get("version") == phash:
                    self.metrics.incr("patch.replayed")
                    response = dict(recorded)
                    response["replayed"] = True
                    return response
                if (
                    check is not None
                    and key == entry.last_key
                    and phash == entry.phash
                ):
                    # The journal says this exact patch already applied
                    # (recovered session whose in-memory window is gone,
                    # or a response lost in flight): answer from the
                    # session instead of a base-mismatch cold solve.
                    self.metrics.incr("patch.replayed")
                    replayed = True
            if not replayed:
                if check is None:
                    slug = self._quarantined.pop(fingerprint, None)
                    fallback = f"quarantined-{slug}" if slug else "cold-start"
                elif base is not None and base != entry.phash:
                    fallback = "base-mismatch"
            journal_count = 0
            if fallback is None and not replayed:
                if self.journal is not None:
                    journal_count = self._journal_append(
                        fingerprint, property, check, old_phash, phash,
                        program, key,
                    )
                try:
                    with self.metrics.time("patch"):
                        outcome = check.apply_source(program)
                except UnsupportedConstraintError as exc:
                    # Raised while *encoding* the new program, before
                    # any mutation: the session is intact.
                    raise EngineError(protocol.E_UNSUPPORTED, str(exc)) from exc
                except Exception:
                    # The solver may be mid-repair: discard the session
                    # and answer from a cold solve instead.
                    entry.check = None
                    entry.phash = None
                    check = None
                    fallback = "patch-failed"
                else:
                    patch_stats = outcome.stats.as_dict()
                    self.metrics.incr("patch.applied")
            if fallback is not None:
                self.metrics.incr("patch.fallback")
                self.metrics.incr(f"patch.fallback.{fallback}")
                try:
                    with self.metrics.time("solve"):
                        check = StableCheck(
                            program,
                            prop,
                            algebra=self._check_algebra(prop, fingerprint),
                            budget=budget,
                        )
                except UnsupportedConstraintError as exc:
                    raise EngineError(protocol.E_UNSUPPORTED, str(exc)) from exc
                except SolverCancelled as exc:
                    self.metrics.incr("solve.cancelled")
                    raise EngineError(
                        protocol.E_CANCELLED, f"solve cancelled: {exc.progress}"
                    ) from exc
                except SolverBudgetExceeded as exc:
                    self.metrics.incr("solve.budget_exceeded")
                    raise EngineError(
                        protocol.E_BUDGET, f"{exc} (progress: {exc.progress})"
                    ) from exc
                if self.journal is not None:
                    # Any cold (re)build starts a fresh journal at the
                    # known-good state — this also discards a record
                    # appended for a patch that then failed to apply.
                    try:
                        self.journal.begin(fingerprint, property, phash, program)
                    except OSError:
                        self.metrics.incr("journal.append_failed")
            elif (
                not replayed
                and self.journal is not None
                and journal_count
                and self.journal.should_compact(journal_count)
            ):
                try:
                    with self.metrics.time("journal.compact"):
                        self.journal.compact(
                            fingerprint, property, phash, program, check.solver
                        )
                except (TypeError, OSError):
                    self.metrics.incr("journal.compact_failed")
            entry.check = check
            entry.phash = phash
            entry.prop_name = property
            if not replayed:
                entry.last_key = key
            result = check.check()
            violations = [
                {
                    "where": v.node.describe(),
                    "line": v.node.line,
                    "instantiation": None,
                    "trace": [],
                }
                for v in result.violations
            ]
            response = {
                "property": property,
                "fingerprint": fingerprint,
                "program": phash,
                "version": phash,
                "base": old_phash,
                "patched": fallback is None,
                "fallback": fallback,
                "patch": patch_stats,
                "replayed": replayed,
                "has_violation": result.has_violation,
                "violations": violations,
                "constraints": result.constraints,
                "facts": result.facts,
            }
            if key is not None:
                entry.idem[key] = dict(response)
                while len(entry.idem) > _IDEMPOTENCY_WINDOW:
                    entry.idem.popitem(last=False)
            return response

    def dataflow(
        self, program: str, track: list[str], budget: Budget | None = None
    ) -> dict:
        """Interprocedural gen/kill facts for the tracked primitives."""
        from repro.dataflow import AnnotatedBitVectorAnalysis
        from repro.dataflow.problems import call_tracking_problem

        if not track:
            raise EngineError(
                protocol.E_BAD_REQUEST, "dataflow requires at least one primitive"
            )
        track = [str(name) for name in track]
        fingerprint = f"bitvector{len(track)}-{machine_fingerprint(one_bit_machine())}"
        phash = program_hash(program)
        key = ("dataflow", fingerprint, phash, tuple(track))

        def build() -> Any:
            cfg = self._parse_cfg(program)
            problem = call_tracking_problem(cfg, track)
            # Dataflow never extracts witnesses, so it runs on the flat
            # core (difference propagation over packed gen/kill ints).
            return AnnotatedBitVectorAnalysis(
                cfg,
                problem,
                algebra=self._bitvector_algebra(problem.n_bits),
                flat=True,
                budget=budget,
            )

        entry = self._solve(key, build)
        with entry.lock:
            cached = entry.results.get("dataflow")
            if cached is None:
                analysis = entry.analysis
                facts = list(analysis.problem.facts)
                nodes = []
                for node in analysis.cfg.all_nodes():
                    if node.call is None:
                        continue
                    held = analysis.may_hold(node)
                    nodes.append(
                        {
                            "where": node.describe(),
                            "line": node.line,
                            "may_hold": sorted(facts[i] for i in held),
                        }
                    )
                cached = {
                    "fingerprint": fingerprint,
                    "program": phash,
                    "facts": facts,
                    "nodes": nodes,
                }
                entry.results["dataflow"] = cached
        return cached

    def flow(
        self,
        program: str,
        query: list[str] | None = None,
        pn: bool = False,
        assume: list[list[str]] | None = None,
        budget: Budget | None = None,
    ) -> dict:
        """Section 7 label flow; ``assume`` runs an incremental what-if."""
        from repro.flow import FlowAnalysis

        phash = program_hash(program)
        key = ("flow", phash, bool(pn))

        def build() -> Any:
            try:
                return FlowAnalysis(program, pn=pn, compiled=True, budget=budget)
            except (ValueError, TypeError) as exc:
                # FlowSyntaxError / FlowTypeError
                raise EngineError(protocol.E_PARSE, str(exc)) from exc

        entry = self._solve(key, build)
        with entry.lock:
            analysis = entry.analysis
            result: dict[str, Any] = {
                "fingerprint": machine_fingerprint(analysis.system.machine),
                "program": phash,
                "labels": sorted(analysis.labels),
                "machine_states": analysis.machine_states,
                "monoid_size": analysis.monoid_size,
                "pn": bool(pn),
            }
            try:
                if assume:
                    if query is None:
                        raise EngineError(
                            protocol.E_BAD_REQUEST,
                            "flow 'assume' requires a 'query' to answer",
                        )
                    self.metrics.incr("whatif.queries")
                    src, dst = query
                    result["assume"] = [list(pair) for pair in assume]
                    result["flows"] = analysis.flows_assuming(
                        [tuple(pair) for pair in assume], src, dst
                    )
                    result["query"] = [src, dst]
                elif query is not None:
                    src, dst = query
                    result["flows"] = analysis.flows(src, dst)
                    result["query"] = [src, dst]
                else:
                    result["pairs"] = sorted(
                        [list(pair) for pair in analysis.flow_pairs()]
                    )
            except KeyError as exc:
                raise EngineError(
                    protocol.E_BAD_REQUEST, f"unknown label: {exc.args[0]}"
                ) from exc
        return result

    def stats(self) -> dict:
        """Metrics, cache occupancy, and aggregated solver counters."""
        aggregate = SolverStats()
        with self._lock:
            entries = list(self._solved.values())
            delta_entries = list(self._delta.values())
            cache_info = {
                "entries": len(self._solved),
                "max_entries": self.cache_size,
                "machines": len(self._algebras),
                "properties": len(self._properties),
                "patch_sessions": len(self._delta),
            }
        solvers = [entry.solver for entry in entries]
        solvers.extend(
            entry.check.solver
            for entry in delta_entries
            if entry.check is not None
        )
        for solver in solvers:
            if solver is None:
                continue
            for field, value in solver.stats.as_dict().items():
                setattr(aggregate, field, getattr(aggregate, field) + value)
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = cache_info
        snapshot["solver"] = aggregate.as_dict()
        snapshot["protocol"] = protocol.PROTOCOL_VERSION
        snapshot["uptime_s"] = round(time.monotonic() - self.started_at, 3)
        snapshot["recoveries"] = self.recoveries
        if self.journal is not None:
            snapshot["journal"] = {
                "appends": self.journal.appends,
                "fsyncs": self.journal.fsyncs,
                "compactions": self.journal.compactions,
                "quarantined": len(self._quarantined),
            }
        return snapshot

    # -- dispatch (used by the server) ----------------------------------------

    @staticmethod
    def _request_budget(params: dict, budget: Budget | None) -> Budget | None:
        """Fold the wire ``budget`` param into the server-provided budget.

        The server's budget (deadline + cancellation token) is the outer
        bound; a client-requested budget can only tighten it.  With no
        server budget a fresh one is built from the wire spec alone.

        An absolute ``deadline`` param (Unix seconds) is folded in the
        same way: already expired is a typed ``deadline-exceeded``
        refusal, otherwise the remaining time caps ``max_seconds`` so
        the solve never outlives its caller.
        """
        deadline = params.get("deadline")
        if deadline is not None:
            if isinstance(deadline, bool) or not isinstance(
                deadline, (int, float)
            ):
                raise EngineError(
                    protocol.E_BAD_REQUEST,
                    "deadline must be an absolute unix timestamp (seconds)",
                )
            remaining = float(deadline) - time.time()
            if remaining <= 0:
                raise EngineError(
                    protocol.E_DEADLINE,
                    f"deadline expired {-remaining:.3f}s before the solve "
                    "started",
                )
            if budget is None:
                budget = Budget(max_seconds=remaining)
            else:
                budget = budget.tighten(max_seconds=remaining)
        spec = params.get("budget")
        if spec is None:
            return budget
        if not isinstance(spec, dict):
            raise EngineError(
                protocol.E_BAD_REQUEST, "budget param must be an object"
            )
        limits: dict[str, Any] = {}
        for wire_key, kwarg, types in (
            ("steps", "max_steps", (int,)),
            ("seconds", "max_seconds", (int, float)),
            ("facts", "max_facts", (int,)),
        ):
            value = spec.get(wire_key)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, types) or value <= 0:
                raise EngineError(
                    protocol.E_BAD_REQUEST,
                    f"budget.{wire_key} must be a positive number",
                )
            limits[kwarg] = value
        unknown = set(spec) - {"steps", "seconds", "facts"}
        if unknown:
            raise EngineError(
                protocol.E_BAD_REQUEST,
                f"unknown budget key(s): {', '.join(sorted(unknown))}",
            )
        if budget is None:
            return Budget(**limits) if limits else None
        return budget.tighten(**limits)

    def dispatch(
        self, op: str, params: dict, budget: Budget | None = None
    ) -> dict:
        """Route a validated protocol request to its operation.

        ``budget`` is the per-request resource governor the server built
        (deadline, cancellation token); the wire-level ``budget`` param,
        if present, tightens it further.

        The cyclic garbage collector is paused for the request
        (:func:`repro.gcpause.paused`): a request leaves no cycles, so
        the collector would only rescan the engine's caches.  It runs
        again once no request is in flight.
        """
        with paused():
            if op in ("check", "patch", "dataflow", "flow"):
                budget = self._request_budget(params, budget)
            if op == "patch":
                base = params.get("base")
                if base is not None and not isinstance(base, str):
                    raise EngineError(
                        protocol.E_BAD_REQUEST, "patch 'base' must be a string"
                    )
                key = params.get("key")
                if key is not None and not isinstance(key, str):
                    raise EngineError(
                        protocol.E_BAD_REQUEST, "patch 'key' must be a string"
                    )
                return self.patch(
                    params["program"],
                    params["property"],
                    base=base,
                    key=key,
                    budget=budget,
                )
            if op == "check":
                return self.check(
                    params["program"],
                    params["property"],
                    traces=bool(params.get("traces", False)),
                    max_findings=params.get("max_findings"),
                    budget=budget,
                )
            if op == "dataflow":
                return self.dataflow(
                    params["program"], params["track"], budget=budget
                )
            if op == "flow":
                return self.flow(
                    params["program"],
                    query=params.get("query"),
                    pn=bool(params.get("pn", False)),
                    assume=params.get("assume"),
                    budget=budget,
                )
            if op == "stats":
                return self.stats()
            if op == "ping":
                return {"pong": True, "protocol": protocol.PROTOCOL_VERSION}
            raise EngineError(protocol.E_BAD_REQUEST, f"unknown op {op!r}")
