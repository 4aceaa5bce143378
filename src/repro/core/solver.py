"""The bidirectional annotated-constraint solver (Section 3).

The solver maintains the constraint graph in *standard form*:

* ``lower``  — constructed lower bounds ``c(...) ⊆^f X`` per variable,
* ``upper``  — constructed upper bounds ``X ⊆^g c(...)`` per variable,
* ``succ``   — annotated variable-variable edges ``X ⊆^g Y``,
* ``proj``   — projection sinks ``c^{-i}(X) ⊆^g Z`` attached to ``X``,

and closes it under the resolution rules of Section 3.1 with a worklist:

* **transitive closure** — a lower bound reaching ``X`` with annotation
  ``f`` crosses an edge ``X ⊆^g Y`` as ``then(f, g)`` (the paper's
  ``g ∘ f``, a constant-time monoid operation);
* **constructor meet** — when a lower bound ``c^α(X⃗)`` and an upper
  bound ``c^β(Y⃗)`` meet at a variable with combined annotation ``f``,
  component constraints ``X_i ⊆^f Y_i`` are added; mismatched
  constructors are recorded as :class:`~repro.core.errors.Inconsistency`
  (the paper's "no solution");
* **projection** — a lower bound ``c^α(..., X_i, ...)`` meeting a
  projection sink ``c^{-i}(·) ⊆^g Z`` adds the edge ``X_i ⊆ Z`` with the
  composed annotation.

Annotations that are *dead* — provably never part of a word of ``L(M)``
again (``algebra.is_live`` is false) — are dropped at creation, the
pruning Section 3.1 justifies by minimality of ``M``.

Following the paper's implementation (Section 8), constructor-annotation
variables are never materialized during solving; the query engine
(:mod:`repro.core.queries`) reconstructs them on demand.

Solving is *online*: every :meth:`Solver.add` drains the worklist, so
constraints may be intermixed freely with queries — the property the
paper highlights as the advantage of bidirectional solving.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.core.annotations import Annotation, UnannotatedAlgebra
from repro.core.budget import Budget
from repro.core.cycles import (
    DEFAULT_SEARCH_BOUND,
    UnionFind,
    find_identity_cycle,
    strong_components,
)
from repro.core.errors import ConstraintError, Inconsistency, NoSolutionError
from repro.core.terms import (
    Constructed,
    Projection,
    SetExpression,
    Variable,
    VariableFactory,
)

FactKey = tuple

#: Sort key of variables (representatives are the smallest name).
_name = attrgetter("name")


def _rewrites(bucket: Any, rewritten: list) -> int:
    """Net count change when a lone bucket's ``rewritten`` entries (their
    canonical keys, or ``None`` for a dropped identity self-edge) replace
    the originals: each leaves, and each distinct key the bucket does not
    already hold comes back.  A lone unmoved variable's bucket holds
    distinct keys, so its canonical size is ``len(bucket)`` plus this."""
    new = {key for key in rewritten if key is not None and key not in bucket}
    return len(new) - len(rewritten)


@dataclass
class SolverStats:
    """Lightweight monotone counters maintained by the solver.

    Plain integer increments on the hot path (no locks, no callbacks);
    :mod:`repro.service.metrics` snapshots them for the analysis
    service.  ``rollbacks`` counts :meth:`Solver.rollback` calls — it is
    monotone even though rollback removes facts.
    """

    edges_added: int = 0
    lowers_added: int = 0
    uppers_added: int = 0
    projections_added: int = 0
    compositions: int = 0
    # Difference propagation (ISSUE 7): neighbor-bucket entries the
    # drain *skipped* because they were already paired when this fact's
    # snapshot was taken — the re-compositions the pre-diff-prop solver
    # would have attempted.  ``redundant_compositions`` counts (fact,
    # neighbor) pairs composed more than once; it is only maintained
    # when ``Solver(track_redundant=True)`` and is asserted to be zero
    # at the fixpoint by the benchmarks and tests.
    compositions_saved: int = 0
    redundant_compositions: int = 0
    facts_deduped: int = 0
    marks: int = 0
    rollbacks: int = 0
    cycles_collapsed: int = 0
    vars_merged: int = 0
    find_calls: int = 0
    # Incremental re-solving (repro.incremental): facts removed by
    # DRed over-deletion, facts restored by the re-derive pass, and the
    # cumulative size of the affected cones.  Zero outside patch runs.
    facts_retracted: int = 0
    facts_rederived: int = 0
    cone_size: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "edges_added": self.edges_added,
            "lowers_added": self.lowers_added,
            "uppers_added": self.uppers_added,
            "projections_added": self.projections_added,
            "compositions": self.compositions,
            "compositions_saved": self.compositions_saved,
            "redundant_compositions": self.redundant_compositions,
            "facts_deduped": self.facts_deduped,
            "marks": self.marks,
            "rollbacks": self.rollbacks,
            "cycles_collapsed": self.cycles_collapsed,
            "vars_merged": self.vars_merged,
            "find_calls": self.find_calls,
            "facts_retracted": self.facts_retracted,
            "facts_rederived": self.facts_rederived,
            "cone_size": self.cone_size,
        }


@dataclass(frozen=True)
class Reason:
    """Provenance of a derived fact: the rule and its antecedent facts.

    ``info`` carries application payload for given constraints (the
    model checker stores the program statement an edge came from, which
    witness extraction turns into an error trace).
    """

    rule: str
    antecedents: tuple[FactKey, ...] = ()
    info: Any = None


class Solver:
    """Online bidirectional solver for regularly annotated set constraints."""

    def __init__(
        self,
        algebra: Any | None = None,
        pn_projections: bool = False,
        prune_dead: bool = True,
        record_reasons: bool = True,
        budget: Budget | None = None,
        cycle_elim: bool = True,
        cycle_search_bound: int = DEFAULT_SEARCH_BOUND,
        track_redundant: bool = False,
    ):
        self.algebra = algebra if algebra is not None else UnannotatedAlgebra()
        #: Optional resource governor (see :mod:`repro.core.budget`).
        #: Checked between facts at amortized intervals by every drain;
        #: may be attached or replaced at any point between drains —
        #: warm-started solvers get theirs after loading.
        self.budget = budget
        #: Drop facts whose annotation is necessarily non-accepting (the
        #: Section 3.1 pruning justified by minimality of M).  Disabled
        #: only by the ablation benchmark.
        self.prune_dead = prune_dead
        #: When true, *bare constants* also flow through projections
        #: (``c ⊆ Y`` and ``d^{-i}(Y) ⊆ Z`` give ``c ⊆ Z``).  This is the
        #: "unmatched return" half of PN reachability (Section 6.2): a
        #: value created inside a callee escapes to any caller.  Matched
        #: solving (the default) only extracts properly wrapped terms.
        self.pn_projections = pn_projections
        #: Provenance is only needed by clients that extract witnesses
        #: (the model checker's traces).  Dataflow, flow analysis and the
        #: service's reachability queries never do; with
        #: ``record_reasons=False`` the solver skips the per-fact
        #: :class:`Reason` allocation and the ``_reasons`` dict entirely,
        #: and :meth:`reason` returns ``None`` for every fact.
        self.record_reasons = record_reasons
        #: Whether ``_reasons`` covers every stored fact.  True for a
        #: solver that recorded provenance while solving; cleared by
        #: :func:`repro.core.persist.load_solver` (loaded facts carry no
        #: provenance) so :class:`repro.incremental.DeltaSolver` can
        #: refuse warm-loaded systems with a typed error instead of
        #: silently mis-retracting.
        self.provenance_complete = record_reasons
        #: Online cycle elimination (see :mod:`repro.core.cycles`): merge
        #: variables on a cycle of identity-annotated edges into one
        #: representative.  Exact — such variables have equal solutions —
        #: and on by default; ``cycle_elim=False`` is the escape hatch
        #: (and the baseline the benchmarks measure against).
        self.cycle_elim = cycle_elim
        self.cycle_search_bound = cycle_search_bound
        #: Variables that have stored an identity out-edge, kept
        #: *monotonically* (never shrunk on rollback, rehome or
        #: retraction — an extra member only costs a wasted search, a
        #: missing one would miss cycles).  An inserted edge src→dst can
        #: only close an identity cycle through an identity edge out of
        #: dst, so the cycle search is skipped when dst is not here.
        self._id_out: set[Variable] = set()
        self._uf = UnionFind()
        self._collapsing = False
        self._identity = self.algebra.identity
        # Compiled algebras expose the identity as a precomputed table
        # index, making the per-edge identity test an int comparison.
        identity_index = getattr(self.algebra, "identity_index", None)
        self._identity_key = (
            identity_index if identity_index is not None else self._identity
        )
        self._is_live = self.algebra.is_live
        self._fresh = VariableFactory("tmp")
        # var -> {(source Constructed, annotation)} and so on; values are
        # insertion-ordered dicts so membership tests are O(1) and
        # iteration is deterministic.  The *_seq lists mirror each bucket
        # in insertion order: the drain loop iterates them by index under
        # a length snapshot, which tolerates appends without the per-fact
        # ``list(...)`` copy the dicts would force.  They only diverge
        # from the dicts during rollback, which rebuilds them.
        self._lower: dict[Variable, dict[tuple[Constructed, Annotation], None]] = {}
        self._upper: dict[Variable, dict[tuple[Constructed, Annotation], None]] = {}
        self._succ: dict[Variable, dict[tuple[Variable, Annotation], None]] = {}
        self._pred: dict[Variable, dict[tuple[Variable, Annotation], None]] = {}
        self._proj: dict[
            Variable, dict[tuple[Any, int, Variable, Annotation], None]
        ] = {}
        self._lower_seq: dict[Variable, list[tuple[Constructed, Annotation]]] = {}
        self._upper_seq: dict[Variable, list[tuple[Constructed, Annotation]]] = {}
        self._succ_seq: dict[Variable, list[tuple[Variable, Annotation]]] = {}
        self._proj_seq: dict[
            Variable, list[tuple[Any, int, Variable, Annotation]]
        ] = {}
        self._met: set[tuple[Constructed, Constructed, Annotation]] = set()
        self._reasons: dict[FactKey, Reason] = {}
        # Difference propagation state: how many entries of a variable's
        # lower-bound sequence have been *drained* (popped and paired
        # against the full neighbor tables).  FIFO draining makes the
        # drained entries a prefix of ``_lower_seq[var]``, so one counter
        # per variable is a complete high-water mark.  Worklist entries
        # are ``(fact, snap)`` pairs: for edge/upper/proj facts ``snap``
        # is the counter value at insertion time, and the drain composes
        # them only against ``lower_seq[var][:snap]`` — the older lowers;
        # every newer lower walks the full neighbor tables itself when
        # drained, so each (lower, neighbor) pair is composed exactly
        # once at the fixpoint.  Overstating a snapshot is always safe
        # (extra compositions dedupe); understating one loses pairs, so
        # every path that resets state (rollback, rebuild_seqs, persist
        # load) errs on the side of "already drained".
        self._lower_drained: dict[Variable, int] = {}
        #: Maintain ``stats.redundant_compositions`` by remembering every
        #: (fact, neighbor) pair composed.  Off by default — the pair set
        #: costs memory proportional to total compositions — and enabled
        #: by tests and the benchmarks' verification passes.
        self.track_redundant = track_redundant
        self._pair_seen: set[tuple] = set()
        self._work: deque[tuple[FactKey, int]] = deque()
        self.inconsistencies: list[Inconsistency] = []
        self.facts_processed = 0
        self.stats = SolverStats()
        # Backtracking journal (BANSHEE's toolkit supported constraint
        # retraction): each mark() opens an epoch; every fact recorded
        # while an epoch is open is undone by rollback().  Sound because
        # closure is monotone: facts derivable without the retracted
        # constraints were already present before the mark.
        self._journal: list[list[tuple]] = []

    # -- public API -----------------------------------------------------------

    def fresh(self, hint: str | None = None) -> Variable:
        """A fresh set variable (used by normalization and callers alike)."""
        return self._fresh.fresh(hint)

    def add(
        self,
        lhs: SetExpression,
        rhs: SetExpression,
        annotation: Annotation | None = None,
        info: Any = None,
    ) -> None:
        """Add the constraint ``lhs ⊆^annotation rhs`` and solve online.

        ``annotation`` defaults to the algebra's identity (an
        unannotated constraint).  ``info`` is attached to the
        constraint's provenance for witness extraction.
        """
        ann = self._identity if annotation is None else annotation
        reason = Reason("given", (), info) if self.record_reasons else None
        lhs = self._normalize_lower(lhs, reason)
        rhs = self._normalize_upper(rhs, reason)
        self._dispatch(lhs, rhs, ann, reason)
        self._drain()

    def add_many(
        self,
        constraints: Iterable[tuple],
    ) -> None:
        """Batch form of :meth:`add`: dispatch every constraint, then drain once.

        Each item is ``(lhs, rhs)``, ``(lhs, rhs, annotation)`` or
        ``(lhs, rhs, annotation, info)``, with the same defaults as
        :meth:`add`.  Solving is still online afterwards — the batch
        merely amortizes the worklist drain over the whole group, which
        is how encoders (a few thousand given constraints, queries only
        at the end) avoid paying a drain per constraint.
        """
        record = self.record_reasons
        for item in constraints:
            n = len(item)
            lhs, rhs = item[0], item[1]
            annotation = item[2] if n > 2 else None
            info = item[3] if n > 3 else None
            ann = self._identity if annotation is None else annotation
            reason = Reason("given", (), info) if record else None
            self._dispatch(
                self._normalize_lower(lhs, reason),
                self._normalize_upper(rhs, reason),
                ann,
                reason,
            )
        self._drain()

    @property
    def is_consistent(self) -> bool:
        return not self.inconsistencies

    def check(self) -> None:
        """Raise :class:`NoSolutionError` if a contradiction was found."""
        if self.inconsistencies:
            raise NoSolutionError(str(self.inconsistencies[0]))

    def variables(self) -> set[Variable]:
        """Every variable of the system, *including* those merged away by
        cycle elimination (their solved form is readable through the
        accessors, which resolve representatives)."""
        keys: set[Variable] = set()
        for table in (self._lower, self._upper, self._succ, self._pred, self._proj):
            for var, bucket in table.items():
                if bucket:
                    keys.add(var)
        # Both sides of every merge: a winner whose facts all
        # canonicalized away (e.g. a stale self-loop dropped by a
        # snapshot round-trip) would otherwise vanish from the set.
        keys.update(self._uf.parent)
        keys.update(self._uf.parent.values())
        return keys

    def find(self, var: Variable) -> Variable:
        """The representative a variable was collapsed into (itself if
        never merged).  Queries resolve through this, so merged-away
        variables remain fully queryable."""
        uf = self._uf
        if not uf.parent:
            return var
        # Path compression rewires parent pointers, which the undo log
        # cannot unwind — suppress it while a retraction epoch is open.
        return uf.find(var, not self._journal)

    def lower_bounds(
        self, var: Variable
    ) -> Iterator[tuple[Constructed, Annotation]]:
        """All derived lower bounds ``src ⊆^f var`` (the solved form)."""
        yield from self._lower.get(self.find(var), ())

    def lower_table(
        self,
    ) -> Iterable[tuple[Variable, Iterable[tuple[Constructed, Annotation]]]]:
        """Every variable's lower bounds, ``(var, bucket)`` in the order
        the solve first gave each variable one (read-only views)."""
        return self._lower.items()

    def upper_bounds(
        self, var: Variable
    ) -> Iterator[tuple[Constructed, Annotation]]:
        yield from self._upper.get(self.find(var), ())

    def edges_from(self, var: Variable) -> Iterator[tuple[Variable, Annotation]]:
        yield from self._succ.get(self.find(var), ())

    def projection_sinks(
        self, var: Variable
    ) -> Iterator[tuple[Any, int, Variable, Annotation]]:
        yield from self._proj.get(self.find(var), ())

    def has_lower(
        self, var: Variable, source: Constructed, annotation: Annotation
    ) -> bool:
        """Is ``source ⊆^annotation var`` present in the solved form?"""
        bucket = self._lower.get(self.find(var), {})
        if (source, annotation) in bucket:
            return True
        if self._uf.parent and source.args:
            return (self._canonical_term(source), annotation) in bucket
        return False

    def reason(self, fact: FactKey) -> Reason | None:
        """Provenance of a recorded fact, for witness reconstruction.

        Facts are recorded under the variable names that were canonical
        at derivation time; a query phrased with since-merged variables
        falls back to the representative-resolved key.
        """
        found = self._reasons.get(fact)
        if found is not None or not self._uf.parent:
            return found
        return self._reasons.get(self._canonical_fact(fact))

    # -- backtracking ----------------------------------------------------------

    def mark(self) -> int:
        """Open a retraction epoch; returns its depth (for sanity checks).

        Constraints added after a mark can be undone wholesale with
        :meth:`rollback` — the online analog of re-running without them.
        """
        self._journal.append([])
        self.stats.marks += 1
        return len(self._journal)

    def rollback(self) -> None:
        """Retract everything added since the most recent :meth:`mark`."""
        if not self._journal:
            raise RuntimeError("rollback() without a matching mark()")
        self.stats.rollbacks += 1
        epoch = self._journal.pop()
        touched: set[tuple[str, Variable]] = set()
        for record in reversed(epoch):
            tag = record[0]
            if tag == "lower":
                _t, var, key = record
                self._lower.get(var, {}).pop(key, None)
                self._reasons.pop(("lower", var, *key), None)
                touched.add((tag, var))
            elif tag == "upper":
                _t, var, key = record
                self._upper.get(var, {}).pop(key, None)
                self._reasons.pop(("upper", var, *key), None)
                touched.add((tag, var))
            elif tag == "edge":
                _t, src_var, key = record
                self._succ.get(src_var, {}).pop(key, None)
                dst_var, ann = key
                self._pred.get(dst_var, {}).pop((src_var, ann), None)
                self._reasons.pop(("edge", src_var, dst_var, ann), None)
                touched.add((tag, src_var))
            elif tag == "proj":
                _t, var, key = record
                self._proj.get(var, {}).pop(key, None)
                self._reasons.pop(("proj", var, *key), None)
                touched.add((tag, var))
            elif tag == "met":
                self._met.discard(record[1])
            elif tag == "inconsistency":
                if self.inconsistencies:
                    self.inconsistencies.pop()
            elif tag == "demerge":
                # Undo a cycle merge: reattach the loser's tables exactly
                # as they were detached.  The winner-side copies made by
                # rehoming were journaled normally and have already been
                # popped by the records above (they were appended later).
                (
                    _t,
                    var,
                    lower,
                    upper,
                    succ,
                    proj,
                    pred,
                    lower_seq,
                    upper_seq,
                    succ_seq,
                    proj_seq,
                    drained,
                ) = record
                for table, bucket in (
                    (self._lower, lower),
                    (self._upper, upper),
                    (self._succ, succ),
                    (self._proj, proj),
                    (self._pred, pred),
                    (self._lower_seq, lower_seq),
                    (self._upper_seq, upper_seq),
                    (self._succ_seq, succ_seq),
                    (self._proj_seq, proj_seq),
                ):
                    if bucket is not None:
                        table[var] = bucket
                if drained is not None:
                    self._lower_drained[var] = drained
            elif tag == "predfold":
                _t, var, added = record
                bucket = self._pred.get(var, {})
                for key in added:
                    bucket.pop(key, None)
            elif tag == "uf":
                self._uf.undo_union(record[1])
        # Re-sync the iteration sequences with the pruned buckets (the
        # only point where they can diverge; drains never remove facts).
        tables = {
            "lower": (self._lower, self._lower_seq),
            "upper": (self._upper, self._upper_seq),
            "edge": (self._succ, self._succ_seq),
            "proj": (self._proj, self._proj_seq),
        }
        for tag, var in touched:
            table, seq = tables[tag]
            seq[var] = list(table.get(var, {}))
            if tag == "lower":
                # Rollback removes a *suffix* of the lower sequence
                # (appends only ever extend it), so the drained entries
                # that survive are still a prefix: clamping the counter
                # to the new length is exact.
                count = self._lower_drained.get(var)
                if count is not None and count > len(seq[var]):
                    self._lower_drained[var] = len(seq[var])

    def _record(self, entry: tuple) -> None:
        if self._journal:
            self._journal[-1].append(entry)

    # -- fact retraction support (repro.incremental) ---------------------------
    #
    # These hooks remove *individual* facts without maintaining closure;
    # restoring closure (DRed over-delete + re-derive) is the job of
    # :class:`repro.incremental.DeltaSolver`, the only intended caller.
    # They must not be mixed with an open journal epoch — retraction of
    # arbitrary facts cannot be replayed by the LIFO undo log.

    def remove_fact(self, fact: FactKey) -> bool:
        """Remove one stored fact (and its provenance entry) if present.

        ``fact`` must use currently-canonical variable names in its
        primary slots.  Iteration sequences for touched variables are
        *not* resynced here; callers batch removals and then call
        :meth:`rebuild_seqs` once per touched ``(kind, var)``.
        """
        kind = fact[0]
        if kind == "lower":
            _tag, var, src, ann = fact
            bucket = self._lower.get(var, {})
            present = (src, ann) in bucket
            bucket.pop((src, ann), None)
            self._reasons.pop(fact, None)
            return present
        if kind == "edge":
            _tag, src_var, dst_var, ann = fact
            bucket = self._succ.get(src_var, {})
            present = (dst_var, ann) in bucket
            bucket.pop((dst_var, ann), None)
            self._pred.get(dst_var, {}).pop((src_var, ann), None)
            self._reasons.pop(fact, None)
            return present
        if kind == "upper":
            _tag, var, snk, ann = fact
            bucket = self._upper.get(var, {})
            present = (snk, ann) in bucket
            bucket.pop((snk, ann), None)
            self._reasons.pop(fact, None)
            return present
        if kind == "proj":
            _tag, var, ctor, index, target, ann = fact
            bucket = self._proj.get(var, {})
            key = (ctor, index, target, ann)
            present = key in bucket
            bucket.pop(key, None)
            self._reasons.pop(fact, None)
            return present
        raise AssertionError(f"unknown fact kind {kind!r}")

    def remove_met(self, key: tuple) -> None:
        """Forget a constructor meet (and any inconsistency it recorded).

        Used by retraction when a meet's justifying pair is deleted; a
        surviving alternate pair will redo the meet (and re-record the
        inconsistency) when the re-derive pass re-fires it.
        """
        self._met.discard(key)
        src, snk, ann = key
        if src.constructor != snk.constructor and self.inconsistencies:
            for i, inc in enumerate(self.inconsistencies):
                if (
                    inc.source == src
                    and inc.sink == snk
                    and inc.annotation == ann
                ):
                    del self.inconsistencies[i]
                    break

    def rebuild_seqs(self, touched: Iterable[tuple[str, Variable]]) -> None:
        """Resync iteration sequences after a batch of :meth:`remove_fact`."""
        tables = {
            "lower": (self._lower, self._lower_seq),
            "edge": (self._succ, self._succ_seq),
            "upper": (self._upper, self._upper_seq),
            "proj": (self._proj, self._proj_seq),
        }
        for tag, var in touched:
            table, seq = tables[tag]
            seq[var] = list(table.get(var, {}))
            if tag == "lower":
                # Retraction runs at a fixpoint, where every surviving
                # lower has been drained; the re-derive pass re-enqueues
                # frontier facts explicitly, so "all drained" is the
                # safe (and exact) counter value.
                self._lower_drained[var] = len(seq[var])

    def pending_count(self) -> int:
        """Worklist backlog: facts recorded but not yet resolved against
        their neighbors.  Zero at the fixpoint; nonzero only after an
        interrupted drain (or on a loaded checkpoint)."""
        return len(self._work)

    def resume(self, budget: Budget | None = None) -> None:
        """Continue an interrupted solve to the fixpoint (or next limit).

        After a :class:`~repro.core.errors.SolverInterrupted` the
        worklist still holds everything unprocessed; ``resume`` drains
        it, optionally under a fresh budget (the old one has, by
        definition, just run out).  A no-op when nothing is pending.
        """
        if budget is not None:
            self.budget = budget
        self._drain()

    def _install_snapshot(self, snap: Any) -> None:
        """Fill this empty solver with a snapshot's solved form.

        ``snap`` is a :class:`repro.core.persist.SnapshotTables`: the
        decoded variable, constructor, term and annotation tables, and
        fact rows of ints indexing them.  The facts were closed when
        dumped, so they go straight into the tables without re-closure
        and count as drained; later ``add`` calls resume online solving
        on top of them.  They carry no provenance: witness
        reconstruction treats a missing reason like the opaque
        ``loaded`` rule, and :class:`repro.incremental.DeltaSolver`
        refuses the system (``provenance_complete`` is cleared).
        """
        self.provenance_complete = False
        variables, terms, elements = snap.variables, snap.terms, snap.elements
        # ``zip(it, it, it)`` walks a flat row list three ints at a time.
        # Rows arrive grouped by variable, so each bucket is looked up
        # once per run of rows; a key is new iff storing it grows the
        # bucket (one hash per row).
        for table, seqs, rows in (
            (self._lower, self._lower_seq, snap.lowers),
            (self._upper, self._upper_seq, snap.uppers),
        ):
            last = -1
            it = iter(rows)
            for v, t, e in zip(it, it, it):
                if v != last:
                    last = v
                    var = variables[v]
                    bucket = table.setdefault(var, {})
                    seq = seqs.setdefault(var, [])
                key = (terms[t], elements[e])
                size = len(bucket)
                bucket[key] = None
                if len(bucket) != size:
                    seq.append(key)
        idk = self._identity_key
        pred = self._pred
        last = -1
        it = iter(snap.edges)
        for s, d, e in zip(it, it, it):
            if s != last:
                last = s
                src = variables[s]
                bucket = self._succ.setdefault(src, {})
                seq = self._succ_seq.setdefault(src, [])
            dst = variables[d]
            ann = elements[e]
            key = (dst, ann)
            size = len(bucket)
            bucket[key] = None
            if len(bucket) != size:
                seq.append(key)
                into = pred.get(dst)
                if into is None:
                    into = pred[dst] = {}
                into[(src, ann)] = None
                if ann == idk:
                    self._id_out.add(src)
        constructors = snap.constructors
        last = -1
        it = iter(snap.projections)
        for v, c, index, t, e in zip(it, it, it, it, it):
            if v != last:
                last = v
                var = variables[v]
                bucket = self._proj.setdefault(var, {})
                seq = self._proj_seq.setdefault(var, [])
            key = (constructors[c], index, variables[t], elements[e])
            size = len(bucket)
            bucket[key] = None
            if len(bucket) != size:
                seq.append(key)
        # Merged-away variables resolve to the representative their
        # facts were dumped under, so they stay queryable.
        parent = self._uf.parent
        it = iter(snap.merged)
        for loser, rep in zip(it, it):
            parent[variables[loser]] = variables[rep]
        # Difference propagation: every stored lower was composed against
        # the neighbor tables it was dumped with.  Facts added after the
        # load snapshot against these counters; a pending backlog
        # re-walks whole windows (see ``SnapshotTables.pending``).
        self._lower_drained = {var: len(seq) for var, seq in self._lower_seq.items()}
        self._work.extend(snap.pending)
        self._met.update(snap.met)
        self.inconsistencies.extend(snap.inconsistencies)

    def fact_count(self) -> int:
        """Number of distinct facts in the solved form (for benchmarks).

        With cycle elimination enabled the count is taken modulo the
        *full* identity-cycle quotient (:meth:`canonical_facts`), so it
        is a function of the solved form alone — independent of which
        cycles the bounded online sampler happened to merge, and stable
        across a run and its checkpoint/resume replay.

        It equals ``sum(1 for _ in canonical_facts())`` without building
        or sorting a key per fact: a bucket the quotient rewrites
        nothing in contributes its size, and only merged groups and the
        entries with a moved variable go through a dedup set.
        """
        tables = (self._lower, self._upper, self._succ, self._proj)
        if not self.cycle_elim:
            return sum(len(bucket) for table in tables for bucket in table.values())
        moved = self._moved()
        moved_vars = moved.keys()
        groups = self._merged_groups(moved)
        grouped = {var for group in groups.values() for var in group}
        ct = self._term_rewriter(moved)
        idk = self._identity_key

        def size(bucket: dict, rewritten: list) -> int:
            return len(bucket) + _rewrites(bucket, rewritten)

        total = 0
        for table in (self._lower, self._upper):
            for var, bucket in table.items():
                if var not in grouped:
                    total += size(bucket, [
                        (ct(term), ann)
                        for term, ann in bucket
                        if term.args and not moved_vars.isdisjoint(term.args)
                    ])
        for var, bucket in self._succ.items():
            if var not in grouped:
                total += size(bucket, [
                    None
                    if moved[dst] == var and ann == idk
                    else (moved[dst], ann)
                    for dst, ann in bucket
                    if dst in moved
                ])
        for var, bucket in self._proj.items():
            if var not in grouped:
                total += size(bucket, [
                    (ctor, index, moved[target], ann)
                    for ctor, index, target, ann in bucket
                    if target in moved
                ])
        for rep, group in groups.items():
            keys: set = set()
            for var in group:
                for term, ann in self._lower.get(var, ()):
                    keys.add(("lower", ct(term), ann))
                for term, ann in self._upper.get(var, ()):
                    keys.add(("upper", ct(term), ann))
                for dst, ann in self._succ.get(var, ()):
                    d = moved.get(dst, dst)
                    if not (d == rep and ann == idk):
                        keys.add(("edge", d, ann))
                for ctor, index, target, ann in self._proj.get(var, ()):
                    keys.add(("proj", ctor, index, moved.get(target, target), ann))
            total += len(keys)
        return total

    def _merged_groups(
        self, moved: dict[Variable, Variable]
    ) -> dict[Variable, list[Variable]]:
        """The quotient classes that merge variables holding facts.

        Maps each representative that a moved table variable resolves to
        onto every table variable the quotient sends there (itself
        included when it has tables).  Every other table variable is a
        lone, unmoved class: its buckets hold distinct keys already, and
        only their entries that name a moved variable need rewriting.
        """
        tables = (self._lower, self._upper, self._succ, self._proj)
        groups: dict[Variable, list[Variable]] = {}
        for var, rep in moved.items():
            if any(var in table for table in tables):
                groups.setdefault(rep, []).append(var)
        for rep, group in groups.items():
            if any(rep in table for table in tables):
                group.append(rep)
        return groups

    def _term_rewriter(
        self, moved: dict[Variable, Variable]
    ) -> Callable[[Constructed], Constructed]:
        """``term`` with its moved arguments resolved through ``moved``
        (``term`` itself when it names none).  A solved form repeats a
        few hundred distinct terms across thousands of facts, so each
        distinct rewrite is built once."""
        moved_vars = moved.keys()
        memo: dict[Constructed, Constructed] = {}

        def ct(term: Constructed) -> Constructed:
            if not moved or not term.args or moved_vars.isdisjoint(term.args):
                return term
            canonical = memo.get(term)
            if canonical is None:
                canonical = memo[term] = Constructed(
                    term.constructor, tuple(moved.get(a, a) for a in term.args)
                )
            return canonical

        return ct

    # -- cycle elimination -----------------------------------------------------

    def _moved(self) -> dict[Variable, Variable]:
        """The variables the full identity-cycle quotient moves, each
        mapped to its canonical representative.

        Composes the online merges with a *complete* SCC pass over the
        identity-annotated subgraph, so cycles the bounded sampler
        missed are still quotiented here.  Representatives are the
        lexicographically smallest member of each component — a pure
        function of the solved form, which is what keeps dumps and fact
        counts comparable across runs with different merge histories.
        Every variable not in the map is its own representative.
        """
        # The union-find root of every merged-away variable, resolved
        # once; any other variable is its own root.
        uf = self._uf
        compress = not self._journal
        roots = {var: uf.find(var, compress) for var in list(uf.parent)}
        idk = self._identity_key
        moved: dict[Variable, Variable] = {}
        for component in strong_components(
            (roots.get(src, src), roots.get(dst, dst))
            for src, bucket in self._succ.items()
            for dst, ann in bucket
            if ann == idk
        ):
            root = min(component, key=_name)
            for var in component:
                if var is not root:
                    moved[var] = root
        # Component members are union-find roots; the merged-away
        # variables follow their root.
        for var, root in roots.items():
            moved[var] = moved.get(root, root)
        return moved

    def collapse_map(self) -> dict[Variable, Variable]:
        """Map every variable of the system to its canonical representative
        (see :meth:`_moved`)."""
        moved = self._moved()
        return {var: moved.get(var, var) for var in self.variables()}

    def canonical_facts(
        self, cmap: dict[Variable, Variable] | None = None
    ) -> Iterator[FactKey]:
        """The solved form modulo the full identity-cycle quotient.

        Yields each distinct fact once, with every variable slot
        (including constructor arguments) resolved through
        :meth:`collapse_map` and identity self-edges dropped.  This is
        what persistence dumps and what :meth:`fact_count` counts when
        cycle elimination is enabled.  ``cmap`` is a
        :meth:`collapse_map` the caller already holds.
        """
        if cmap is None:
            moved = self._moved()
        else:
            moved = {var: rep for var, rep in cmap.items() if rep != var}
        groups = self._merged_groups(moved)
        lower, upper, succ, proj = self._lower, self._upper, self._succ, self._proj
        reps = set(groups)
        reps.update(lower, upper, succ, proj)
        reps.difference_update(moved)
        ct = self._term_rewriter(moved)
        moved_vars = moved.keys()
        idk = self._identity_key
        for rep in sorted(reps, key=_name):
            group = groups.get(rep)
            if group is not None:
                yield from self._group_facts(rep, sorted(group, key=_name), moved, ct)
                continue
            # A lone unmoved variable: its buckets are yielded as stored,
            # except entries naming a moved variable, which are rewritten
            # and yielded unless the bucket (or an earlier rewrite)
            # already holds the result.
            for kind, table in (("lower", lower), ("upper", upper)):
                bucket = table.get(rep)
                if bucket:
                    rewritten: set = set()
                    for term, ann in bucket:
                        if (
                            term.args
                            and moved
                            and not moved_vars.isdisjoint(term.args)
                        ):
                            key = (ct(term), ann)
                            if key in bucket or key in rewritten:
                                continue
                            rewritten.add(key)
                            term = key[0]
                        yield (kind, rep, term, ann)
            bucket = succ.get(rep)
            if bucket:
                rewritten = set()
                for dst, ann in bucket:
                    d = moved.get(dst) if moved else None
                    if d is not None:
                        if d == rep and ann == idk:
                            continue
                        if (d, ann) in bucket or (d, ann) in rewritten:
                            continue
                        rewritten.add((d, ann))
                        dst = d
                    yield ("edge", rep, dst, ann)
            bucket = proj.get(rep)
            if bucket:
                rewritten = set()
                for ctor, index, target, ann in bucket:
                    t = moved.get(target) if moved else None
                    if t is not None:
                        key = (ctor, index, t, ann)
                        if key in bucket or key in rewritten:
                            continue
                        rewritten.add(key)
                        target = t
                    yield ("proj", rep, ctor, index, target, ann)

    def _group_facts(
        self,
        rep: Variable,
        group: list[Variable],
        moved: dict[Variable, Variable],
        ct: Callable[[Constructed], Constructed],
    ) -> Iterator[FactKey]:
        """A merged class's facts, rewritten onto ``rep`` and deduplicated."""
        idk = self._identity_key
        emitted: set[FactKey] = set()
        for kind, table in (("lower", self._lower), ("upper", self._upper)):
            for var in group:
                for term, ann in table.get(var, ()):
                    key = (kind, rep, ct(term), ann)
                    if key not in emitted:
                        emitted.add(key)
                        yield key
        for var in group:
            for dst, ann in self._succ.get(var, ()):
                d = moved.get(dst, dst)
                if d == rep and ann == idk:
                    continue
                key = ("edge", rep, d, ann)
                if key not in emitted:
                    emitted.add(key)
                    yield key
        for var in group:
            for ctor, index, target, ann in self._proj.get(var, ()):
                key = ("proj", rep, ctor, index, moved.get(target, target), ann)
                if key not in emitted:
                    emitted.add(key)
                    yield key

    def _canonical_term(self, term: Constructed) -> Constructed:
        if not term.args or not self._uf.parent:
            return term
        find = self.find
        args = tuple(find(a) if isinstance(a, Variable) else a for a in term.args)
        if args == term.args:
            return term
        return Constructed(term.constructor, args)

    def _canonical_fact(self, fact: FactKey) -> FactKey:
        """Resolve a fact key's primary variable slots through find()."""
        kind = fact[0]
        find = self.find
        if kind == "lower":
            return (kind, find(fact[1]), fact[2], fact[3])
        if kind == "edge":
            return (kind, find(fact[1]), find(fact[2]), fact[3])
        if kind == "upper":
            return (kind, find(fact[1]), fact[2], fact[3])
        if kind == "proj":
            return (kind, find(fact[1]), fact[2], fact[3], find(fact[4]), fact[5])
        return fact

    # -- normalization ---------------------------------------------------------

    def _normalize_lower(
        self, expr: SetExpression, reason: Reason | None
    ) -> SetExpression:
        """Reduce a left-hand side to the paper's grammar.

        Constructor arguments that are not variables are replaced by
        fresh variables bounded from below (covariance makes this
        solution-preserving)."""
        if isinstance(expr, (Variable, Projection)):
            return expr
        if isinstance(expr, Constructed):
            args = []
            for arg in expr.args:
                if isinstance(arg, Variable):
                    args.append(arg)
                else:
                    var = self.fresh("arg")
                    inner = self._normalize_lower(arg, reason)
                    self._dispatch(inner, var, self._identity, reason)
                    args.append(var)
            return Constructed(expr.constructor, tuple(args))
        raise ConstraintError(f"unsupported left-hand side: {expr!r}")

    def _normalize_upper(
        self, expr: SetExpression, reason: Reason | None
    ) -> SetExpression:
        """Reduce a right-hand side; projections are rejected (Section 2.1)."""
        if isinstance(expr, Variable):
            return expr
        if isinstance(expr, Projection):
            raise ConstraintError("projections may not appear on the right-hand side")
        if isinstance(expr, Constructed):
            args = []
            for arg in expr.args:
                if isinstance(arg, Variable):
                    args.append(arg)
                else:
                    var = self.fresh("arg")
                    inner = self._normalize_upper(arg, reason)
                    self._dispatch(var, inner, self._identity, reason)
                    args.append(var)
            return Constructed(expr.constructor, tuple(args))
        raise ConstraintError(f"unsupported right-hand side: {expr!r}")

    def _dispatch(
        self,
        lhs: SetExpression,
        rhs: SetExpression,
        ann: Annotation,
        reason: Reason | None,
    ) -> None:
        if isinstance(lhs, Variable) and isinstance(rhs, Variable):
            self._enqueue(("edge", lhs, rhs, ann), reason)
        elif isinstance(lhs, Constructed) and isinstance(rhs, Variable):
            self._enqueue(("lower", rhs, lhs, ann), reason)
        elif isinstance(lhs, Variable) and isinstance(rhs, Constructed):
            self._enqueue(("upper", lhs, rhs, ann), reason)
        elif isinstance(lhs, Constructed) and isinstance(rhs, Constructed):
            self._meet(lhs, rhs, ann, reason.info)
        elif isinstance(lhs, Projection):
            if isinstance(rhs, Constructed):
                bridge = self.fresh("proj")
                self._enqueue(
                    ("proj", lhs.operand, lhs.constructor, lhs.index, bridge, ann),
                    reason,
                )
                self._enqueue(("upper", bridge, rhs, self._identity), reason)
            else:
                self._enqueue(
                    ("proj", lhs.operand, lhs.constructor, lhs.index, rhs, ann),
                    reason,
                )
        else:
            raise ConstraintError(f"unsupported constraint {lhs!r} ⊆ {rhs!r}")

    # -- worklist machinery -----------------------------------------------------

    def _enqueue(self, fact: FactKey, reason: Reason | None) -> None:
        kind = fact[0]
        if self.prune_dead and not self._is_live(fact[-1]):
            return  # necessarily non-accepting annotation: prune
        if self._uf.parent:
            # Lazy canonicalization: facts mentioning merged-away
            # variables are rehomed onto their representatives here, at
            # the single choke point every fact passes through.
            fact = self._canonical_fact(fact)
        if kind == "lower":
            _tag, var, src, ann = fact
            table = self._lower.setdefault(var, {})
            key = (src, ann)
            if key in table:
                self.stats.facts_deduped += 1
                return
            table[key] = None
            self._lower_seq.setdefault(var, []).append(key)
            self._record(("lower", var, key))
            self.stats.lowers_added += 1
        elif kind == "edge":
            _tag, src_var, dst_var, ann = fact
            if src_var == dst_var:
                # A reflexive edge adds nothing for idempotent-free
                # annotations only when the annotation is the identity.
                if ann == self._identity:
                    return
            table = self._succ.setdefault(src_var, {})
            key = (dst_var, ann)
            if key in table:
                self.stats.facts_deduped += 1
                return
            table[key] = None
            self._succ_seq.setdefault(src_var, []).append(key)
            self._pred.setdefault(dst_var, {})[(src_var, ann)] = None
            if ann == self._identity_key:
                self._id_out.add(src_var)
            self._record(("edge", src_var, key))
            self.stats.edges_added += 1
        elif kind == "upper":
            _tag, var, snk, ann = fact
            table = self._upper.setdefault(var, {})
            key = (snk, ann)
            if key in table:
                self.stats.facts_deduped += 1
                return
            table[key] = None
            self._upper_seq.setdefault(var, []).append(key)
            self._record(("upper", var, key))
            self.stats.uppers_added += 1
        elif kind == "proj":
            _tag, var, ctor, index, target, ann = fact
            table = self._proj.setdefault(var, {})
            key = (ctor, index, target, ann)
            if key in table:
                self.stats.facts_deduped += 1
                return
            table[key] = None
            self._proj_seq.setdefault(var, []).append(key)
            self._record(("proj", var, key))
            self.stats.projections_added += 1
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown fact kind {kind!r}")
        if reason is not None:
            self._reasons.setdefault(fact, reason)
        # Difference-propagation snapshot: a non-lower fact records how
        # many lowers at its variable were drained *before* it existed;
        # only those need pairing from its side (newer lowers pair with
        # it when they drain).  ``fact[1]`` is the canonical primary
        # variable for every kind.
        self._work.append(
            (fact, 0 if kind == "lower" else self._lower_drained.get(fact[1], 0))
        )
        if (
            kind == "edge"
            and self.cycle_elim
            and not self._collapsing
            and self._is_identity(fact[3])
            and fact[2] in self._id_out
        ):
            # Partial online detection (Fähndrich et al.): the new
            # identity edge src → dst closes a cycle iff dst already
            # reaches src over identity edges.  Sample a bounded
            # reverse path; on a hit, merge the cycle's members.
            cycle = find_identity_cycle(
                self._pred,
                self.find,
                self._is_identity,
                fact[1],
                fact[2],
                self.cycle_search_bound,
            )
            if cycle is not None:
                self._collapse(cycle)

    def _is_identity(self, ann: Annotation) -> bool:
        # _identity_key is the compiled algebra's precomputed identity
        # index when available (an int compare), else the identity
        # annotation itself.
        return ann == self._identity_key

    def _collapse(self, cycle: list[Variable]) -> None:
        """Merge the members of an identity cycle into one representative.

        Sound because every edge on the cycle carries the identity
        annotation: ``id ∘ id = id``, so each member's lower bounds flow
        unchanged to every other member and their solutions are equal.
        The representative is the lexicographically smallest member (a
        deterministic choice independent of merge history); the losers'
        tables are detached and their facts re-enqueued onto the winner,
        which both deduplicates and restores worklist coverage.
        """
        winner = min(cycle, key=lambda v: v.name)
        losers = [v for v in cycle if v != winner]
        stats = self.stats
        stats.cycles_collapsed += 1
        stats.vars_merged += len(losers)
        uf = self._uf
        self._collapsing = True
        try:
            for loser in losers:
                uf.union(winner, loser)
                self._record(("uf", loser))
            for loser in losers:
                self._rehome(loser, winner)
        finally:
            self._collapsing = False

    def _rehome(self, loser: Variable, winner: Variable) -> None:
        lower = self._lower.pop(loser, None)
        upper = self._upper.pop(loser, None)
        succ = self._succ.pop(loser, None)
        proj = self._proj.pop(loser, None)
        pred = self._pred.pop(loser, None)
        lower_seq = self._lower_seq.pop(loser, None)
        upper_seq = self._upper_seq.pop(loser, None)
        succ_seq = self._succ_seq.pop(loser, None)
        proj_seq = self._proj_seq.pop(loser, None)
        # The loser's drained counter dies with its bucket; the demerge
        # record restores it on rollback.  Re-enqueued copies snapshot
        # against the *winner's* counter in _enqueue, and re-enqueued
        # lowers walk the winner's full neighbor tables when drained, so
        # every pair at the merged variable is still composed.
        drained = self._lower_drained.pop(loser, None)
        # Fold the loser's predecessor index into the winner's so future
        # reverse-path samples still see the incoming identity edges.
        added: list[tuple[Variable, Annotation]] = []
        if pred:
            wbucket = self._pred.setdefault(winner, {})
            find = self.find
            for p, ann in pred:
                key = (find(p), ann)
                if key[0] == winner and self._is_identity(ann):
                    continue  # now an internal edge of the merged node
                if key not in wbucket:
                    wbucket[key] = None
                    added.append(key)
        self._record(("predfold", winner, tuple(added)))
        self._record(
            (
                "demerge",
                loser,
                lower,
                upper,
                succ,
                proj,
                pred,
                lower_seq,
                upper_seq,
                succ_seq,
                proj_seq,
                drained,
            )
        )
        # Re-enqueue the loser's facts onto the winner.  _enqueue
        # canonicalizes (loser resolves to winner), dedups against facts
        # the winner already has, and re-appends survivors to the
        # worklist — which restores the pairing invariant for neighbor
        # lists that were mid-iteration when the merge happened.
        # Identity edges internal to the cycle canonicalize to identity
        # self-edges and are dropped.  Original Reason objects ride
        # along so provenance survives the move.
        #
        # Merging can leave the kept reason *self-citing*: several
        # copies of one fact (the same term/annotation at different
        # cycle members) collapse into a single winner-side key, and
        # the copy whose Reason survives may cite another copy — now
        # the same canonical fact, i.e. itself.  A self-supporting
        # entry disconnects retraction's cone walk from the fact's
        # real upstream support, so after each re-enqueue, if the kept
        # reason self-cites and the incoming copy's does not, the
        # incoming reason replaces it.  The temporally first copy
        # always cites strictly-earlier (hence other-keyed) facts, so
        # a non-self-citing reason is available whenever the fact ever
        # had outside support.  Skipped while a journal epoch is open:
        # rollback restores the loser tables verbatim and the winner's
        # original reason must survive with them.
        reasons = self._reasons if self.record_reasons else None
        fix_self = reasons is not None and not self._journal
        if lower:
            for src, ann in lower:
                reason = reasons.get(("lower", loser, src, ann)) if reasons else None
                self._enqueue(("lower", loser, src, ann), reason)
                if fix_self and reason is not None:
                    self._prefer_outside_reason(
                        ("lower", loser, src, ann), reason
                    )
        if upper:
            for snk, ann in upper:
                reason = reasons.get(("upper", loser, snk, ann)) if reasons else None
                self._enqueue(("upper", loser, snk, ann), reason)
                if fix_self and reason is not None:
                    self._prefer_outside_reason(
                        ("upper", loser, snk, ann), reason
                    )
        if succ:
            for dst, ann in succ:
                reason = (
                    reasons.get(("edge", loser, dst, ann)) if reasons else None
                )
                self._enqueue(("edge", loser, dst, ann), reason)
                if fix_self and reason is not None:
                    self._prefer_outside_reason(
                        ("edge", loser, dst, ann), reason
                    )
        if proj:
            for ctor, index, target, ann in proj:
                reason = (
                    reasons.get(("proj", loser, ctor, index, target, ann))
                    if reasons
                    else None
                )
                self._enqueue(("proj", loser, ctor, index, target, ann), reason)
                if fix_self and reason is not None:
                    self._prefer_outside_reason(
                        ("proj", loser, ctor, index, target, ann), reason
                    )
        if reasons is not None and not self._journal:
            # The re-enqueues above re-recorded each surviving fact's
            # Reason under its canonical winner-side key (or deduped
            # against the winner's own entry), so the loser-keyed
            # entries now describe facts that no longer exist under
            # those keys — drop them.  With a journal epoch open the
            # loser tables can come back verbatim on rollback and their
            # reasons must survive with them.
            if lower:
                for src, ann in lower:
                    reasons.pop(("lower", loser, src, ann), None)
            if upper:
                for snk, ann in upper:
                    reasons.pop(("upper", loser, snk, ann), None)
            if succ:
                for dst, ann in succ:
                    reasons.pop(("edge", loser, dst, ann), None)
            if proj:
                for ctor, index, target, ann in proj:
                    reasons.pop(("proj", loser, ctor, index, target, ann), None)

    def _self_cites(self, key: FactKey, reason: "Reason") -> bool:
        """Does ``reason`` cite ``key`` itself (under canonical names)?"""
        canon = self._canonical_fact
        return any(canon(ant) == key for ant in reason.antecedents)

    def _prefer_outside_reason(self, moved: FactKey, reason: "Reason") -> None:
        """Swap a merged fact's kept reason for a non-self-citing copy.

        ``moved`` is the loser-keyed fact just re-enqueued onto the
        winner; ``reason`` is the Reason that rode along with it.  When
        the winner-side entry kept a reason that now cites its own
        canonical key while the incoming copy's does not, the incoming
        one wins — see the rehoming comment for why one such copy
        exists whenever the fact ever had support outside the class.
        """
        key = self._canonical_fact(moved)
        reasons = self._reasons
        kept = reasons.get(key)
        if kept is None or kept is reason:
            return
        if self._self_cites(key, kept) and (
            not reason.antecedents or not self._self_cites(key, reason)
        ):
            reasons[key] = reason

    def _drain(self) -> None:
        # Everything this loop touches per derived fact is hoisted into
        # locals: the composition operation, the counters, the iteration
        # sequences.  Lower facts walk their neighbor sequences by index
        # under a length snapshot — appends made while a fact is being
        # processed are deliberately *not* seen here: a newly derived
        # fact pairs with its neighbors when its own turn on the
        # worklist comes.  Edge/upper/proj facts walk only the lowers
        # that were already drained when they were inserted (difference
        # propagation) — the newer lowers pair with them from the other
        # side, so each pair is composed exactly once at the fixpoint.
        then = self.algebra.then
        stats = self.stats
        enqueue = self._enqueue
        meet = self._meet
        lower_seq = self._lower_seq
        upper_seq = self._upper_seq
        succ_seq = self._succ_seq
        proj_seq = self._proj_seq
        lower_drained = self._lower_drained
        idk = self._identity_key
        work = self._work
        record = self.record_reasons
        track = self.track_redundant
        pair_seen = self._pair_seen
        pn = self.pn_projections
        # Budget governance: with no budget the loop pays one
        # predictable ``is not None`` branch per fact; with one, the
        # full limit evaluation runs at drain start and then every
        # ``check_interval`` facts.  Charges happen *before* a fact is
        # popped, so an interrupt always leaves the worklist holding
        # exactly the unresolved facts — the invariant checkpoint/resume
        # relies on.
        budget = self.budget
        check_every = countdown = 0
        if budget is not None and work:
            check_every = budget.check_interval
            countdown = check_every
            budget.charge(0, self)
        while work:
            if budget is not None:
                countdown -= 1
                if countdown <= 0:
                    countdown = check_every
                    budget.charge(check_every, self)
            fact, snap = work.popleft()
            self.facts_processed += 1
            kind = fact[0]
            if kind == "lower":
                _tag, var, src, f = fact
                # Count this lower as drained *before* processing it:
                # any fact enqueued while it is being processed must
                # snapshot past it (it will not re-walk the neighbor
                # tables), and overstating a snapshot only costs a
                # deduped recomposition, never a missed pair.
                lower_drained[var] = lower_drained.get(var, 0) + 1
                seq = succ_seq.get(var)
                if seq:
                    i, n = 0, len(seq)
                    while i < n:
                        dst_var, g = seq[i]
                        i += 1
                        stats.compositions += 1
                        if track:
                            pk = ("t", var, src, f, dst_var, g)
                            if pk in pair_seen:
                                stats.redundant_compositions += 1
                            else:
                                pair_seen.add(pk)
                        h = f if g == idk else g if f == idk else then(f, g)
                        enqueue(
                            ("lower", dst_var, src, h),
                            Reason("trans", (fact, ("edge", var, dst_var, g)))
                            if record
                            else None,
                        )
                seq = upper_seq.get(var)
                if seq:
                    i, n = 0, len(seq)
                    while i < n:
                        snk, g = seq[i]
                        i += 1
                        stats.compositions += 1
                        if track:
                            pk = ("m", var, src, f, snk, g)
                            if pk in pair_seen:
                                stats.redundant_compositions += 1
                            else:
                                pair_seen.add(pk)
                        h = f if g == idk else g if f == idk else then(f, g)
                        meet(
                            src,
                            snk,
                            h,
                            None,
                            antecedents=(fact, ("upper", var, snk, g)),
                        )
                seq = proj_seq.get(var)
                if seq:
                    if isinstance(src, Constructed) and src.args:
                        src_ctor = src.constructor
                        i, n = 0, len(seq)
                        while i < n:
                            ctor, index, target, g = seq[i]
                            i += 1
                            if ctor == src_ctor:
                                stats.compositions += 1
                                if track:
                                    pk = ("p", var, src, f, ctor, index, target, g)
                                    if pk in pair_seen:
                                        stats.redundant_compositions += 1
                                    else:
                                        pair_seen.add(pk)
                                h = (
                                    f
                                    if g == idk
                                    else g if f == idk else then(f, g)
                                )
                                enqueue(
                                    (
                                        "edge",
                                        src.args[index - 1],
                                        target,
                                        h,
                                    ),
                                    Reason(
                                        "project",
                                        (
                                            fact,
                                            ("proj", var, ctor, index, target, g),
                                        ),
                                    )
                                    if record
                                    else None,
                                )
                    elif pn and isinstance(src, Constructed):
                        i, n = 0, len(seq)
                        while i < n:
                            ctor, index, target, g = seq[i]
                            i += 1
                            stats.compositions += 1
                            if track:
                                pk = ("pn", var, src, f, ctor, index, target, g)
                                if pk in pair_seen:
                                    stats.redundant_compositions += 1
                                else:
                                    pair_seen.add(pk)
                            h = f if g == idk else g if f == idk else then(f, g)
                            enqueue(
                                ("lower", target, src, h),
                                Reason(
                                    "pn-project",
                                    (fact, ("proj", var, ctor, index, target, g)),
                                )
                                if record
                                else None,
                            )
            elif kind == "edge":
                _tag, src_var, dst_var, g = fact
                seq = lower_seq.get(src_var)
                if seq:
                    n = len(seq)
                    hi = snap if snap < n else n
                    if hi < n:
                        stats.compositions_saved += n - hi
                    i = 0
                    while i < hi:
                        lower_src, f = seq[i]
                        i += 1
                        stats.compositions += 1
                        if track:
                            pk = ("t", src_var, lower_src, f, dst_var, g)
                            if pk in pair_seen:
                                stats.redundant_compositions += 1
                            else:
                                pair_seen.add(pk)
                        h = f if g == idk else g if f == idk else then(f, g)
                        enqueue(
                            ("lower", dst_var, lower_src, h),
                            Reason(
                                "trans",
                                (("lower", src_var, lower_src, f), fact),
                            )
                            if record
                            else None,
                        )
            elif kind == "upper":
                _tag, var, snk, g = fact
                seq = lower_seq.get(var)
                if seq:
                    n = len(seq)
                    hi = snap if snap < n else n
                    if hi < n:
                        stats.compositions_saved += n - hi
                    i = 0
                    while i < hi:
                        src, f = seq[i]
                        i += 1
                        stats.compositions += 1
                        if track:
                            pk = ("m", var, src, f, snk, g)
                            if pk in pair_seen:
                                stats.redundant_compositions += 1
                            else:
                                pair_seen.add(pk)
                        h = f if g == idk else g if f == idk else then(f, g)
                        meet(
                            src,
                            snk,
                            h,
                            None,
                            antecedents=(("lower", var, src, f), fact),
                        )
            elif kind == "proj":
                _tag, var, ctor, index, target, g = fact
                seq = lower_seq.get(var)
                if seq:
                    n = len(seq)
                    hi = snap if snap < n else n
                    if hi < n:
                        stats.compositions_saved += n - hi
                    i = 0
                    while i < hi:
                        src, f = seq[i]
                        i += 1
                        if (
                            isinstance(src, Constructed)
                            and src.constructor == ctor
                            and src.args
                        ):
                            stats.compositions += 1
                            if track:
                                pk = ("p", var, src, f, ctor, index, target, g)
                                if pk in pair_seen:
                                    stats.redundant_compositions += 1
                                else:
                                    pair_seen.add(pk)
                            h = f if g == idk else g if f == idk else then(f, g)
                            enqueue(
                                ("edge", src.args[index - 1], target, h),
                                Reason(
                                    "project", (("lower", var, src, f), fact)
                                )
                                if record
                                else None,
                            )
                        elif pn and src.is_constant:
                            stats.compositions += 1
                            if track:
                                pk = ("pn", var, src, f, ctor, index, target, g)
                                if pk in pair_seen:
                                    stats.redundant_compositions += 1
                                else:
                                    pair_seen.add(pk)
                            h = f if g == idk else g if f == idk else then(f, g)
                            enqueue(
                                ("lower", target, src, h),
                                Reason(
                                    "pn-project", (("lower", var, src, f), fact)
                                )
                                if record
                                else None,
                            )
        if budget is not None:
            # Account for the partial interval so step totals stay exact
            # across the online solver's many small drains; the *next*
            # drain's opening charge enforces limits against the total.
            budget.settle(check_every - countdown)
        stats.find_calls = self._uf.find_calls

    def _meet(
        self,
        src: Constructed,
        snk: Constructed,
        ann: Annotation,
        info: Any,
        antecedents: tuple[FactKey, ...] = (),
    ) -> None:
        """Resolve ``c^α(X⃗) ⊆^ann d^β(Y⃗)`` (the first two rules of §3.1)."""
        key = (src, snk, ann)
        if key in self._met:
            return
        self._met.add(key)
        self._record(("met", key))
        if src.constructor != snk.constructor:
            self.inconsistencies.append(Inconsistency(src, snk, ann))
            self._record(("inconsistency",))
            return
        reason = (
            Reason("decompose", antecedents, info)
            if self.record_reasons
            else None
        )
        ctor = src.constructor
        for index, (arg_src, arg_snk) in enumerate(
            zip(src.args, snk.args), start=1
        ):
            if ctor.covariant(index):
                self._dispatch(arg_src, arg_snk, ann, reason)
            else:
                # Contravariant position: the component flow reverses.
                # Only defined for the identity annotation (a reversed
                # annotated flow would need the reversed word).
                if not self._is_identity(ann):
                    raise ConstraintError(
                        f"contravariant argument {index} of {ctor.name!r} "
                        "met under a non-identity annotation"
                    )
                self._dispatch(arg_snk, arg_src, ann, reason)
