"""Differential re-solving: patch a solved system instead of re-solving.

The solver's closure is monotone, so *adding* constraints to a solved
system is already incremental: new facts propagate through the ordinary
drain loop and only the difference flows (semi-naive evaluation).  What
monotone closure cannot do is *retract* — removing a given constraint
may invalidate derived facts anywhere downstream.  This module supplies
the missing half with the classic delete-and-rederive (DRed) scheme
over the solver's existing provenance:

1. **over-delete** — starting from the retracted constraints' root
   facts, delete every fact whose *recorded* reason transitively
   depends on a deleted fact.  The solver records only the first
   derivation of each fact, so this over-approximates: a fact with a
   surviving alternate derivation is deleted anyway;
2. **re-derive** — re-enqueue the surviving facts of every *frontier*
   variable (a variable at which a deleted fact could be re-derived by
   a single rule application) and drain.  Every over-deleted fact with
   an alternate support is re-derived, and the re-derivations cascade
   through the normal worklist;
3. **additions** then flow through the ordinary drain.

The frontier is computed from the shape of the resolution rules: every
rule pairs two facts stored at one variable ``v`` and derives a fact
elsewhere, so a deleted ``lower`` at ``w`` can only re-arise from a
predecessor of ``w``, a deleted component edge from a variable holding
an upper bound or projection mentioning its endpoint, and so on.  The
:class:`SupportGraph` maintains the reverse indexes this needs.

Cycle elimination complicates retraction: merging an identity cycle
*forgets* the cycle's internal edges (they canonicalize to self-edges
and are dropped), so when a retraction removes an identity edge between
two merged variables the class might split and its original edges are
unrecoverable from solver state alone.  The engine handles this by
**demotion**: the whole union-find class is dissolved — every fact at
(or into) the representative is deleted, the members are released from
the union-find — and the *given* constraints mentioning any member are
re-asserted from the ledger, re-merging whatever sub-cycles still
exist.  This is why :class:`DeltaSolver` keeps a ledger of the given
constraints alongside the solver's provenance.

Everything here assumes provenance: a solver built with
``record_reasons=False``, or warm-loaded from a snapshot (loaded facts
carry no reasons), is rejected with :class:`ProvenanceError` — callers
like the analysis service treat that as "fall back to a cold solve".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core.solver import FactKey, Solver
from repro.core.terms import Constructed, Projection, Variable

__all__ = [
    "DeltaSolver",
    "Patch",
    "PatchError",
    "PatchStateError",
    "PatchStats",
    "ProvenanceError",
    "SupportGraph",
    "UnknownConstraintError",
    "UnsupportedConstraintError",
]


class PatchError(Exception):
    """Base of all typed patch failures.

    ``code`` is a stable machine-readable slug; the analysis service
    maps it into the ``fallback`` field of a patch response.
    """

    code = "patch-error"


class ProvenanceError(PatchError):
    """The solver carries no (complete) provenance to retract against."""

    code = "no-provenance"


class PatchStateError(PatchError):
    """The solver is in a state that cannot be patched (open journal epoch)."""

    code = "bad-state"


class UnsupportedConstraintError(PatchError):
    """A constraint is outside the retractable standard form."""

    code = "unsupported-constraint"


class UnknownConstraintError(PatchError):
    """A retraction names a constraint the ledger does not contain."""

    code = "unknown-constraint"


@dataclass(frozen=True)
class Patch:
    """A batch of constraint edits against a solved system.

    Items use the :meth:`repro.core.solver.Solver.add_many` shape:
    ``(lhs, rhs)``, ``(lhs, rhs, annotation)`` or
    ``(lhs, rhs, annotation, info)`` — retractions ignore ``info`` (a
    constraint is identified by ``lhs ⊆^annotation rhs`` alone).
    """

    adds: tuple[tuple, ...] = ()
    retracts: tuple[tuple, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.adds and not self.retracts

    def size(self) -> int:
        return len(self.adds) + len(self.retracts)


@dataclass
class PatchStats:
    """What one :meth:`DeltaSolver.apply` did."""

    added_constraints: int = 0
    retracted_constraints: int = 0
    #: facts removed by over-deletion (the DRed cone)
    facts_retracted: int = 0
    #: previously-deleted facts restored by the re-derive pass
    facts_rederived: int = 0
    #: union-find classes dissolved because a retraction broke a cycle
    demotions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "added_constraints": self.added_constraints,
            "retracted_constraints": self.retracted_constraints,
            "facts_retracted": self.facts_retracted,
            "facts_rederived": self.facts_rederived,
            "demotions": self.demotions,
        }


def _commit_retractions() -> None:
    """Crash seam between over-delete and re-derive.

    A no-op in production.  :meth:`repro.testing.faults.FaultInjector.
    crash_during_patch` replaces it to simulate a process dying with the
    solved form over-deleted but not yet repaired — the worst possible
    moment — so tests can prove the engine discards the broken entry and
    falls back to a cold solve.
    """


def _constraint_parts(item: tuple, identity: Any) -> tuple:
    """Split an ``add_many``-shaped item into (lhs, rhs, ann, info)."""
    n = len(item)
    lhs, rhs = item[0], item[1]
    ann = item[2] if n > 2 and item[2] is not None else identity
    info = item[3] if n > 3 else None
    return lhs, rhs, ann, info


def _root_fact(lhs: Any, rhs: Any, ann: Any) -> FactKey:
    """The *structural* root fact a standard-form constraint installs.

    Structural means: the constraint's own variable names, untouched by
    union-find canonicalization — which is what makes ledger keys stable
    across merges and demotions.  Non-standard forms (nested arguments,
    constructed ⊆ constructed, projection into a constructed bound)
    would be normalized through fresh variables or immediate meets whose
    root facts are not recoverable from the constraint alone; those
    raise :class:`UnsupportedConstraintError` and the caller falls back
    to a cold solve.
    """
    if isinstance(lhs, Variable) and isinstance(rhs, Variable):
        return ("edge", lhs, rhs, ann)
    if isinstance(lhs, Constructed) and isinstance(rhs, Variable):
        if not all(isinstance(a, Variable) for a in lhs.args):
            raise UnsupportedConstraintError(
                f"cannot retract nested constructor argument in {lhs}"
            )
        return ("lower", rhs, lhs, ann)
    if isinstance(lhs, Variable) and isinstance(rhs, Constructed):
        if not all(isinstance(a, Variable) for a in rhs.args):
            raise UnsupportedConstraintError(
                f"cannot retract nested constructor argument in {rhs}"
            )
        return ("upper", lhs, rhs, ann)
    if isinstance(lhs, Projection) and isinstance(rhs, Variable):
        return ("proj", lhs.operand, lhs.constructor, lhs.index, rhs, ann)
    raise UnsupportedConstraintError(
        f"constraint {lhs} ⊆ {rhs} is outside the retractable standard form"
    )


def _constraint_of(key: FactKey, info: Any) -> tuple:
    """Rebuild an ``add_many`` item from a structural root-fact key."""
    kind = key[0]
    if kind == "edge":
        return (key[1], key[2], key[3], info)
    if kind == "lower":
        return (key[2], key[1], key[3], info)
    if kind == "upper":
        return (key[1], key[2], key[3], info)
    # proj
    _k, var, ctor, index, target, ann = key
    return (ctor.proj(index, var), target, ann, info)


def _vars_of(key: FactKey) -> Iterator[Variable]:
    """Every variable a structural root-fact key mentions."""
    kind = key[0]
    if kind == "edge":
        yield key[1]
        yield key[2]
        return
    if kind == "proj":
        yield key[1]
        yield key[4]
        return
    yield key[1]
    for arg in key[2].args:
        if isinstance(arg, Variable):
            yield arg


class SupportGraph:
    """Reverse indexes over a solved system's support structure.

    The solver's ``_reasons`` table is the forward support graph (fact →
    its first derivation).  Retraction needs the *reverse* direction —
    "which stored facts could this fact support, and at which variables
    could a deleted fact re-arise" — which this class answers from three
    indexes plus on-the-fly rule simulation:

    * ``proj holders``  — target variable → variables holding a
      projection sink onto it (re-derivation sites for projected edges
      and pn lower bounds);
    * ``upper-arg holders`` — argument variable → variables holding an
      upper bound whose term mentions it (re-derivation sites for
      decomposition component edges);
    * ``upper-term holders`` — upper term → variables holding it
      (re-fire sites for removed constructor meets).

    Indexes are keyed by *current* representatives at build time and
    rebuilt lazily whenever the union-find has changed since (merges
    during a patch's add phase, demotions) — the rebuild is linear in
    the system but only runs after the rare uf-changing patches, so
    ordinary small patches stay cone-local.
    """

    def __init__(self, solver: Solver):
        self.solver = solver
        self._proj_holders: dict[Variable, set[Variable]] = {}
        self._upper_arg_holders: dict[Variable, set[Variable]] = {}
        self._upper_term_holders: dict[Constructed, set[Variable]] = {}
        self._uf_epoch: tuple[int, int] = (-1, -1)
        self._demotions = 0
        self.rebuild()

    # -- index maintenance -----------------------------------------------------

    def _epoch(self) -> tuple[int, int]:
        return (self.solver.stats.vars_merged, self._demotions)

    def rebuild(self) -> None:
        solver = self.solver
        find = solver.find
        proj_holders: dict[Variable, set[Variable]] = {}
        upper_arg: dict[Variable, set[Variable]] = {}
        upper_term: dict[Constructed, set[Variable]] = {}
        for var, bucket in solver._proj.items():
            for _ctor, _index, target, _ann in bucket:
                proj_holders.setdefault(find(target), set()).add(var)
        for var, bucket in solver._upper.items():
            for snk, _ann in bucket:
                upper_term.setdefault(snk, set()).add(var)
                for arg in snk.args:
                    if isinstance(arg, Variable):
                        upper_arg.setdefault(find(arg), set()).add(var)
        self._proj_holders = proj_holders
        self._upper_arg_holders = upper_arg
        self._upper_term_holders = upper_term
        self._uf_epoch = self._epoch()

    def refresh(self) -> None:
        """Rebuild iff the union-find changed since the last build."""
        if self._epoch() != self._uf_epoch:
            self.rebuild()

    def note_demotion(self) -> None:
        self._demotions += 1

    def index_added(self, key: FactKey) -> None:
        """Fold one newly-given upper/proj root fact into the indexes."""
        solver = self.solver
        find = solver.find
        kind = key[0]
        if kind == "proj":
            self._proj_holders.setdefault(find(key[4]), set()).add(find(key[1]))
        elif kind == "upper":
            snk = key[2]
            var = find(key[1])
            self._upper_term_holders.setdefault(snk, set()).add(var)
            for arg in snk.args:
                if isinstance(arg, Variable):
                    self._upper_arg_holders.setdefault(find(arg), set()).add(var)

    def proj_holders(self, target: Variable) -> set[Variable]:
        return self._proj_holders.get(target, set())

    def upper_arg_holders(self, arg: Variable) -> set[Variable]:
        return self._upper_arg_holders.get(arg, set())

    def upper_term_holders(self, term: Constructed) -> set[Variable]:
        return self._upper_term_holders.get(term, set())

    # -- reverse support -------------------------------------------------------

    def dependents(
        self,
        fact: FactKey,
        variants: "_VariantCache",
        invalid_roots: set[Variable],
    ) -> tuple[list[FactKey], list[tuple]]:
        """Stored facts whose recorded reason has ``fact`` as antecedent.

        Enumerated by *forward simulation*: re-run each resolution rule
        ``fact`` participates in against the current tables and keep the
        candidates whose recorded reason actually cites ``fact``.  This
        is how the walk stays proportional to the cone instead of
        needing a materialized dependents multimap kept in sync with
        every drain.  Also returns the constructor-meet memo entries
        ``fact`` justifies (their removal lets surviving pairs re-fire
        the meet, re-recording any inconsistency).

        ``invalid_roots`` collects merged-class representatives whose
        merge may rest on ``fact``: when a simulated rule application
        concludes an identity edge both of whose endpoints resolve to
        the same representative, that application historically derived
        an *internal* cycle edge of the class — a fact cycle
        elimination dropped from storage (self-edges are never kept),
        so it has no recorded reason to chase.  The solver is at
        fixpoint, so every co-resident pair has fired its rule: the
        conclusion really existed, and deleting its antecedent pulls a
        strand out of the cycle that justified the merge.  The caller
        demotes the class; re-assertion re-merges whatever still
        cycles.
        """
        solver = self.solver
        then = solver.algebra.then
        find = solver.find
        pn = solver.pn_projections
        deps: list[FactKey] = []
        mets: list[tuple] = []
        kind = fact[0]
        if kind == "lower":
            _t, var, src, f = fact
            for w, g in solver._succ.get(var, {}):
                cand = ("lower", find(w), src, then(f, g))
                if self._cites(cand, fact):
                    deps.append(cand)
            for snk, g in solver._upper.get(var, {}):
                self._meet_candidates(
                    fact, src, snk, then(f, g), variants, deps, mets,
                    invalid_roots,
                )
            if isinstance(src, Constructed):
                for ctor, index, target, g in solver._proj.get(var, {}):
                    self._proj_candidates(
                        fact, src, ctor, index, target, then(f, g),
                        variants, deps, pn, invalid_roots,
                    )
        elif kind == "edge":
            _t, var, w, g = fact
            wv = find(w)
            for src, f in solver._lower.get(var, {}):
                cand = ("lower", wv, src, then(f, g))
                if self._cites(cand, fact):
                    deps.append(cand)
        elif kind == "upper":
            _t, var, snk, g = fact
            for src, f in solver._lower.get(var, {}):
                self._meet_candidates(
                    fact, src, snk, then(f, g), variants, deps, mets,
                    invalid_roots,
                )
        elif kind == "proj":
            _t, var, ctor, index, target, g = fact
            for src, f in solver._lower.get(var, {}):
                if isinstance(src, Constructed):
                    self._proj_candidates(
                        fact, src, ctor, index, target, then(f, g),
                        variants, deps, pn, invalid_roots,
                    )
        return deps, mets

    def _cites(self, candidate: FactKey, antecedent: FactKey) -> bool:
        """Is ``candidate`` stored with a reason citing ``antecedent``?

        Reasons record antecedents under the names that were canonical
        at derivation time; both sides are resolved through the current
        union-find before comparing.  A reason that cites the
        candidate's *own* canonical key is self-supporting — merging
        collapsed its recorded upstream into itself (rehoming repairs
        this when an outside-citing copy exists, see
        ``Solver._prefer_outside_reason``) — so its true support is
        unknowable and the candidate is conservatively treated as
        depending on whatever was deleted; re-derivation restores it if
        real support survives.
        """
        reason = self.solver._reasons.get(candidate)
        if reason is None or not reason.antecedents:
            return False
        canon = self.solver._canonical_fact
        target = canon(antecedent)
        own = canon(candidate)
        for ant in reason.antecedents:
            ca = canon(ant)
            if ca == target or ca == own:
                return True
        return False

    def _meet_candidates(
        self,
        fact: FactKey,
        src: Constructed,
        snk: Constructed,
        ann: Any,
        variants: "_VariantCache",
        deps: list[FactKey],
        mets: list[tuple],
        invalid_roots: set[Variable],
    ) -> None:
        solver = self.solver
        key = (src, snk, ann)
        if key in solver._met:
            mets.append(key)
        if src.constructor != snk.constructor:
            return
        find = solver.find
        is_identity = solver._is_identity
        ctor = src.constructor
        for index, (a_src, a_snk) in enumerate(zip(src.args, snk.args), 1):
            if ctor.covariant(index):
                head, tail = a_src, a_snk
            else:
                head, tail = a_snk, a_src
            hv = find(head)
            troot = find(tail)
            if hv == troot and is_identity(ann):
                # The conclusion is an identity-class self-edge: an
                # internal cycle edge this fact used to support.  It
                # was never stored (self-edges are dropped), and the
                # demotion it triggers deletes every stale stored
                # spelling wholesale.
                invalid_roots.add(hv)
                continue
            for tv in variants.of(troot):
                cand = ("edge", hv, tv, ann)
                if self._cites(cand, fact):
                    deps.append(cand)

    def _proj_candidates(
        self,
        fact: FactKey,
        src: Constructed,
        ctor: Any,
        index: int,
        target: Variable,
        ann: Any,
        variants: "_VariantCache",
        deps: list[FactKey],
        pn: bool,
        invalid_roots: set[Variable],
    ) -> None:
        solver = self.solver
        find = solver.find
        if src.args and src.constructor == ctor:
            xv = find(src.args[index - 1])
            troot = find(target)
            if xv == troot and solver._is_identity(ann):
                invalid_roots.add(xv)
                return
            for tv in variants.of(troot):
                cand = ("edge", xv, tv, ann)
                if self._cites(cand, fact):
                    deps.append(cand)
        elif pn and src.is_constant:
            cand = ("lower", find(target), src, ann)
            if self._cites(cand, fact):
                deps.append(cand)

    # -- frontier --------------------------------------------------------------

    def frontier_of(self, fact: FactKey) -> set[Variable]:
        """Variables at which ``fact`` could be re-derived in one step.

        A deleted ``lower`` at ``w`` re-arises only by transitivity from
        a predecessor of ``w`` or a pn-projection targeting ``w``; a
        deleted ``edge x → t`` only by projection or decomposition at a
        variable whose projection sink or upper-bound term mentions
        ``t``.  Given uppers and projections never re-arise by rule (the
        ledger restores them), so their frontier is empty.
        """
        solver = self.solver
        find = solver.find
        out: set[Variable] = set()
        kind = fact[0]
        if kind == "lower":
            w = find(fact[1])
            for p, _ann in solver._pred.get(w, {}):
                out.add(find(p))
            out.update(find(v) for v in self.proj_holders(w))
        elif kind == "edge":
            t = find(fact[2])
            out.update(find(v) for v in self.proj_holders(t))
            out.update(find(v) for v in self.upper_arg_holders(t))
        return out

    def met_frontier(self, met_key: tuple) -> set[Variable]:
        """Re-fire sites for a removed constructor-meet memo entry."""
        _src, snk, _ann = met_key
        return {self.solver.find(v) for v in self.upper_term_holders(snk)}


class _VariantCache:
    """Per-patch memo of the stale dst/target spellings of a variable.

    Stored edge and projection keys keep the destination name that was
    canonical at insert time; after later merges that name may be any
    member of the destination's class.  ``of(root)`` lists the spellings
    a stored key might use — the root plus its merged-away members.
    """

    def __init__(self, solver: Solver):
        self._solver = solver
        self._by_root: dict[Variable, list[Variable]] | None = None

    def _table(self) -> dict[Variable, list[Variable]]:
        # One pass over the union-find's merged nodes builds every
        # class's member list at once; ``uf.members`` per root would
        # rescan the whole table on each call.
        if self._by_root is None:
            uf = self._solver._uf
            by: dict[Variable, list[Variable]] = {}
            for child in uf.parent:
                by.setdefault(uf.find(child, False), []).append(child)
            self._by_root = by
        return self._by_root

    def of(self, root: Variable) -> tuple[Variable, ...]:
        return (root, *self._table().get(root, ()))


class DeltaSolver:
    """A solved system plus the machinery to patch it in place.

    ``given`` is the ledger: every constraint the solved system was
    built from, in :meth:`~repro.core.solver.Solver.add_many` item
    shape.  The ledger is what demotion re-asserts when a union-find
    class dissolves and what re-derivation consults when an over-deleted
    fact is still given — solver state alone cannot answer either
    (merged-away identity edges are dropped, and a fact's single
    recorded reason may hide that it is *also* given).

    Raises :class:`ProvenanceError` for solvers without complete
    provenance (``record_reasons=False``, or warm-loaded snapshots) and
    :class:`PatchStateError` while a ``mark()`` epoch is open — the
    LIFO journal cannot replay arbitrary retractions.
    """

    def __init__(self, solver: Solver, given: Iterable[tuple]):
        if not solver.record_reasons:
            raise ProvenanceError(
                "solver was built with record_reasons=False; retraction "
                "needs per-fact provenance"
            )
        if not getattr(solver, "provenance_complete", True):
            raise ProvenanceError(
                "solver facts carry no provenance (warm-loaded snapshot); "
                "re-solve from source to patch"
            )
        if solver._journal:
            raise PatchStateError(
                "cannot patch while a mark()/rollback() epoch is open"
            )
        self.solver = solver
        if solver.pending_count():
            solver.resume()
        identity = solver.algebra.identity
        #: structural root fact -> list of infos (one per given instance)
        self._ledger: dict[FactKey, list[Any]] = {}
        #: raw variable -> structural root facts mentioning it
        self._by_var: dict[Variable, set[FactKey]] = {}
        for item in given:
            lhs, rhs, ann, info = _constraint_parts(item, identity)
            self._admit(_root_fact(lhs, rhs, ann), info)
        self.support = SupportGraph(solver)

    # -- ledger ----------------------------------------------------------------

    def _admit(self, key: FactKey, info: Any) -> None:
        self._ledger.setdefault(key, []).append(info)
        for var in _vars_of(key):
            self._by_var.setdefault(var, set()).add(key)

    def _retire(self, key: FactKey) -> Any:
        infos = self._ledger.get(key)
        if not infos:
            raise UnknownConstraintError(
                f"retracted constraint is not in the ledger: {key!r}"
            )
        info = infos.pop()
        if not infos:
            del self._ledger[key]
            for var in _vars_of(key):
                bucket = self._by_var.get(var)
                if bucket is not None:
                    bucket.discard(key)
        return info

    def _refresh(self) -> None:
        self.support.refresh()

    # -- patch application -----------------------------------------------------

    def patch(self, adds: Iterable[tuple] = (), retracts: Iterable[tuple] = ()) -> PatchStats:
        """Convenience wrapper building and applying a :class:`Patch`."""
        return self.apply(Patch(tuple(adds), tuple(retracts)))

    def apply(self, patch: Patch) -> PatchStats:
        """Apply ``patch`` and restore the solved fixpoint.

        On success the solver holds exactly the canonical solved form a
        cold solve of the edited constraint set would produce (the
        property the hypothesis suite asserts).  On any raise the solved
        form may be mid-repair and must be discarded — callers keep the
        constraint source and fall back to a cold solve.
        """
        solver = self.solver
        if solver._journal:
            raise PatchStateError(
                "cannot patch while a mark()/rollback() epoch is open"
            )
        if solver.pending_count():
            solver.resume()
        stats = PatchStats()
        self._refresh()
        identity = solver.algebra.identity
        is_identity = solver._is_identity
        find = solver.find
        uf = solver._uf

        # 1. Classify retractions: decrement the ledger, split into
        #    cycle demotions and ordinary root-fact deletions.
        demote_roots: dict[Variable, None] = {}
        seeds: list[FactKey] = []
        for item in patch.retracts:
            lhs, rhs, ann, _info = _constraint_parts(item, identity)
            key = _root_fact(lhs, rhs, ann)
            self._retire(key)
            stats.retracted_constraints += 1
            if (
                key[0] == "edge"
                and key[1] != key[2]
                and is_identity(key[3])
                and find(key[1]) == find(key[2])
            ):
                # An identity edge inside a merged class: the class may
                # split, and its internal edges were dropped at merge
                # time — dissolve and re-assert the whole class.
                demote_roots[find(key[1])] = None
                continue
            seeds.append(key)

        # 2. Demotion expansion: a dissolved class contributes concrete
        #    stored-fact seeds (facts at the representative, edges into
        #    it, projections targeting it) plus a class-level frontier,
        #    all collected while names are still merged.
        release: list[Variable] = []
        reassert_vars: list[Variable] = []
        demoted: list[Variable] = []
        demoted_set: set[Variable] = set()
        class_frontier: set[Variable] = set()
        variants = _VariantCache(solver)

        def expand_demotion(root: Variable) -> list[FactKey]:
            members = list(variants.of(root)[1:])
            if not members:
                return []  # not a merged class (or already dissolved)
            demoted.append(root)
            stats.demotions += 1
            self.support.note_demotion()
            release.extend(members)
            # The representative is a class member too (it is just not
            # in uf.parent); its given constraints were equally deleted.
            reassert_vars.extend(members)
            reassert_vars.append(root)
            class_frontier.add(root)
            class_frontier.update(members)
            out: list[FactKey] = []
            for bucket, kind in (
                (solver._lower.get(root, {}), "lower"),
                (solver._upper.get(root, {}), "upper"),
            ):
                for term, ann in bucket:
                    out.append((kind, root, term, ann))
            for dst, ann in solver._succ.get(root, {}):
                out.append(("edge", root, dst, ann))
            for ctor, index, target, ann in solver._proj.get(root, {}):
                out.append(("proj", root, ctor, index, target, ann))
            for p, _ann in solver._pred.get(root, {}):
                pv = find(p)
                class_frontier.add(pv)
                for d, ann in solver._succ.get(pv, {}):
                    if find(d) == root:
                        out.append(("edge", pv, d, ann))
            for holder in self.support.proj_holders(root):
                hv = find(holder)
                class_frontier.add(hv)
                for ctor, index, target, ann in solver._proj.get(hv, {}):
                    if find(target) == root:
                        out.append(("proj", hv, ctor, index, target, ann))
            for holder in self.support.upper_arg_holders(root):
                class_frontier.add(find(holder))
            return out

        # 3. Over-delete: BFS over recorded reasons from the seeds.
        #    Everything is *collected* first (the rule simulation needs
        #    the tables intact), then removed in one batch.  The walk
        #    and demotion feed each other — deleting a fact can reveal
        #    that it supported a merged class's internal cycle (see
        #    ``dependents``), and dissolving that class seeds more
        #    deletions — so both run to a joint fixpoint.
        cone: dict[FactKey, None] = {}
        met_cone: dict[tuple, None] = {}
        queue: list[FactKey] = []
        invalid_roots: set[Variable] = set()

        def seed(keys: Iterable[FactKey]) -> None:
            for key in keys:
                stored = self._stored_key(key, variants)
                if stored is not None and stored not in cone:
                    cone[stored] = None
                    queue.append(stored)

        for root in demote_roots:
            demoted_set.add(root)
            seed(expand_demotion(root))
        seed(seeds)
        while queue:
            fact = queue.pop()
            deps, mets = self.support.dependents(fact, variants, invalid_roots)
            for met in mets:
                met_cone[met] = None
            for dep in deps:
                if dep not in cone:
                    cone[dep] = None
                    queue.append(dep)
            if not queue and invalid_roots:
                for root in sorted(invalid_roots, key=lambda v: v.name):
                    if root not in demoted_set:
                        demoted_set.add(root)
                        seed(expand_demotion(root))
                invalid_roots.clear()

        # 4. Frontier (computed before deletion so index keys and stored
        #    names still line up; the buckets are re-read after deletion,
        #    so only survivors are re-enqueued).
        frontier: set[Variable] = set(class_frontier)
        for fact in cone:
            frontier |= self.support.frontier_of(fact)
        for met in met_cone:
            frontier |= self.support.met_frontier(met)

        # 5. Given-restore list: over-deleted facts that are still given
        #    re-enter from the ledger, not from rules.  Candidate ledger
        #    keys are found through ``_by_var`` — a key can only
        #    canonicalize to the cone fact if its primary slot lies in
        #    the fact's class — so the cost tracks the cone, not the
        #    ledger.
        restores: list[tuple] = []
        canon = solver._canonical_fact
        restored_keys: set[FactKey] = set()
        for fact in cone:
            cfact = canon(fact)
            for spelling in variants.of(cfact[1]):
                for skey in self._by_var.get(spelling, ()):
                    if skey in restored_keys or skey[0] != cfact[0]:
                        continue
                    if canon(skey) == cfact:
                        restored_keys.add(skey)
                        for info in self._ledger[skey]:
                            restores.append(_constraint_of(skey, info))

        # 6. Delete.  For edges, ``remove_fact`` pops the predecessor
        #    mirror only under the edge's stored spelling; mirrors
        #    recorded before a merge live under the old names, and a
        #    surviving phantom would let the cycle detector "see" a
        #    deleted identity edge and re-merge a dissolved class — so
        #    every (src variant, dst variant) spelling is purged.
        touched: set[tuple[str, Variable]] = set()
        for fact in cone:
            solver.remove_fact(fact)
            touched.add((fact[0], fact[1]))
            if fact[0] == "edge":
                ann = fact[3]
                src_variants = variants.of(find(fact[1]))
                for dv in variants.of(find(fact[2])):
                    bucket = solver._pred.get(dv)
                    if bucket:
                        for sv in src_variants:
                            bucket.pop((sv, ann), None)
        for met in met_cone:
            solver.remove_met(met)
        solver.rebuild_seqs(touched)
        stats.facts_retracted = len(cone)
        solver.stats.facts_retracted += len(cone)
        solver.stats.cone_size += len(cone)

        # 7. Dissolve demoted classes now that their facts are gone.
        #    Every edge into a demoted class was just deleted, so the
        #    representative's remaining predecessor entries are all
        #    phantoms — mirrors of merge-internal identity edges that
        #    were dropped as self-edges and never stored.  Clear them,
        #    or the released members would appear to still close the
        #    retracted cycle.
        if release:
            for root in demoted:
                solver._pred.pop(root, None)
            uf.release(release)

        _commit_retractions()

        # 8. Re-derive: re-enqueue every surviving fact at a frontier
        #    variable; the drain re-fires each rule application whose
        #    conclusion was over-deleted, and the re-derivations cascade.
        #    Worklist entries are (fact, snapshot) pairs.  The snapshot 0
        #    on edge/upper/proj entries skips their lower-window walk
        #    entirely — sound here because every *lower* at a frontier
        #    variable is re-enqueued too, and re-enqueued lowers walk the
        #    full neighbor tables when drained, which covers every
        #    (lower, neighbor) pair at the variable without the
        #    edge-side duplicate.
        work = solver._work
        for var in frontier:
            v = find(var)
            for src, ann in solver._lower.get(v, {}):
                work.append((("lower", v, src, ann), 0))
            for dst, ann in solver._succ.get(v, {}):
                work.append((("edge", v, dst, ann), 0))
            for snk, ann in solver._upper.get(v, {}):
                work.append((("upper", v, snk, ann), 0))
            for ctor, index, target, ann in solver._proj.get(v, {}):
                work.append((("proj", v, ctor, index, target, ann), 0))

        # 9. Re-assert the given constraints of dissolved classes, the
        #    given-restores, and the patch additions; one drain covers
        #    them and the re-derivation queue together.
        batch: list[tuple] = list(restores)
        if reassert_vars:
            reassert: dict[FactKey, None] = {}
            for member in reassert_vars:
                for skey in self._by_var.get(member, ()):
                    reassert[skey] = None
            for skey in reassert:
                for info in self._ledger.get(skey, ()):
                    batch.append(_constraint_of(skey, info))
        added_keys: list[FactKey] = []
        for item in patch.adds:
            lhs, rhs, ann, info = _constraint_parts(item, identity)
            key = _root_fact(lhs, rhs, ann)
            self._admit(key, info)
            added_keys.append(key)
            batch.append((lhs, rhs, ann, info))
            stats.added_constraints += 1
        if batch:
            solver.add_many(batch)
        else:
            solver.resume()

        # 10. Fold the additions into the support indexes and count the
        #     facts the re-derive pass brought back.
        for key in added_keys:
            self.support.index_added(key)
        post_variants = _VariantCache(solver)
        rederived = sum(
            1
            for fact in cone
            if self._stored_key(fact, post_variants) is not None
        )
        stats.facts_rederived = rederived
        solver.stats.facts_rederived += rederived
        # A patch that merged new cycles (or demoted old ones) leaves
        # the indexes keyed by stale representatives; the next patch's
        # _refresh() rebuilds them.
        return stats

    # -- stored-key resolution -------------------------------------------------

    def _stored_key(
        self, key: FactKey, variants: _VariantCache | None
    ) -> FactKey | None:
        """Find the stored spelling of a (possibly structural) fact key.

        Bucket-owner slots always hold current representatives (rehoming
        maintains that), but edge destinations and projection targets
        keep their insert-time names — ``variants`` enumerates the
        possible spellings.  Returns ``None`` when the fact is simply
        not stored (e.g. it was pruned, deduplicated into an identity
        self-edge, or already deleted).
        """
        solver = self.solver
        find = solver.find
        kind = key[0]
        if variants is None:
            variants = _VariantCache(solver)
        if kind == "lower":
            var = find(key[1])
            if (key[2], key[3]) in solver._lower.get(var, {}):
                return ("lower", var, key[2], key[3])
            term = solver._canonical_term(key[2])
            if (term, key[3]) in solver._lower.get(var, {}):
                return ("lower", var, term, key[3])
            return None
        if kind == "upper":
            var = find(key[1])
            if (key[2], key[3]) in solver._upper.get(var, {}):
                return ("upper", var, key[2], key[3])
            return None
        if kind == "edge":
            src = find(key[1])
            bucket = solver._succ.get(src, {})
            # Exact spelling first: a merged class can hold *several*
            # stored spellings of one canonical fact (same src, dsts in
            # the same class), and a demotion must delete every one of
            # them — resolving each enumerated key to the first variant
            # hit would collapse them into one and leak the rest.
            if (key[2], key[3]) in bucket:
                return ("edge", src, key[2], key[3])
            for dv in variants.of(find(key[2])):
                if (dv, key[3]) in bucket:
                    return ("edge", src, dv, key[3])
            return None
        # proj
        _k, var, ctor, index, target, ann = key
        v = find(var)
        bucket = solver._proj.get(v, {})
        if (ctor, index, target, ann) in bucket:
            return ("proj", v, ctor, index, target, ann)
        for tv in variants.of(find(target)):
            if (ctor, index, tv, ann) in bucket:
                return ("proj", v, ctor, index, tv, ann)
        return None
