"""Flat-array solver core for compiled annotation algebras (ISSUE 7).

:class:`FlatSolver` is a drop-in replacement for the object-mode
:class:`repro.core.solver.Solver` restricted to *compiled* algebras
(:class:`~repro.core.annotations.CompiledMonoidAlgebra`,
:class:`~repro.core.annotations.CompiledGenKillAlgebra`), whose
annotations are already small integers.  It pushes the Section 8
specialization one level further: variables and constructed terms are
interned to dense integer ids, the four fact tables are append-only
parallel list-of-int columns indexed by variable id, membership tests
are packed-int set probes (``src_id * ann_span + ann``), and the
worklist is a flat integer array walked by index — the drain loop does
no tuple allocation and no object hashing.

Difference propagation is built in exactly as in the object solver:
each variable keeps a drained-lowers high-water mark, non-lower facts
snapshot it at insertion, and their drains compose only against the
pre-snapshot prefix of the lower column, so every (lower, neighbor)
pair is composed exactly once at the fixpoint.

Semantics are *identical* to the object solver — the test suite and
benchmarks assert canonical-solved-form equality across both cores,
with cycle elimination, mark/rollback, and budget interrupt/resume in
play.  Two deliberate non-goals:

* **No provenance.**  ``record_reasons=True`` is rejected; witness
  extraction and :class:`repro.incremental.DeltaSolver` (which walks
  reasons to retract) stay on the object solver.  ``reason()`` returns
  ``None`` for every fact, which every query degrades gracefully on.
* **Object algebras are rejected** — representative functions and
  substitution environments are not ints; the object solver remains
  the semantic reference for them.

The flat layout is also what makes snapshots cheap: persistence dumps
the raw columns (see ``repro.core.persist``), with no per-fact object
encode on the way out.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.core.annotations import Annotation
from repro.core.budget import Budget
from repro.core.cycles import DEFAULT_SEARCH_BOUND, strong_components
from repro.core.errors import ConstraintError, Inconsistency, NoSolutionError
from repro.core.solver import FactKey, SolverStats
from repro.core.terms import (
    Constructed,
    Constructor,
    Projection,
    SetExpression,
    Variable,
    VariableFactory,
)

#: Fact-kind codes in worklist records and journal entries.
_LOWER, _EDGE, _UPPER, _PROJ = 0, 1, 2, 3

#: Worklist record width: [kind, var, a, b, c, d, snap].  Lower facts
#: use (a=src term, b=ann); edges (a=dst, b=ann); uppers (a=sink term,
#: b=ann); projections (a=ctor, b=index, c=target, d=ann).
_W = 7

#: Column length at which the drain hands a whole lower column to the
#: algebra's vectorized ``then_many`` (numpy backend) instead of
#: composing entry by entry.  Below this the fixed cost of array
#: conversion beats the win.
NUMPY_MIN_COLUMN = 64


def _ann_span(algebra: Any) -> int:
    """Exclusive upper bound of the algebra's packed annotation ints."""
    n_bits = getattr(algebra, "n_bits", None)
    if n_bits is not None:
        return 1 << (2 * n_bits)
    size = getattr(algebra, "size", None)
    if size is not None:
        return size()
    raise TypeError(
        "FlatSolver requires a compiled algebra with int annotations "
        f"(got {type(algebra).__name__}); use the object Solver"
    )


class FlatSolver:
    """Flat-array online solver over a compiled annotation algebra."""

    def __init__(
        self,
        algebra: Any,
        pn_projections: bool = False,
        prune_dead: bool = True,
        record_reasons: bool = False,
        budget: Budget | None = None,
        cycle_elim: bool = True,
        cycle_search_bound: int = DEFAULT_SEARCH_BOUND,
        track_redundant: bool = False,
    ):
        if record_reasons:
            raise TypeError(
                "FlatSolver does not record provenance; use the object "
                "Solver for witness extraction and incremental patching"
            )
        if getattr(algebra, "identity_index", None) is None:
            raise TypeError(
                "FlatSolver requires a compiled algebra with int "
                f"annotations (got {type(algebra).__name__})"
            )
        self.algebra = algebra
        self.budget = budget
        self.prune_dead = prune_dead
        self.pn_projections = pn_projections
        self.record_reasons = False
        self.provenance_complete = False
        self.cycle_elim = cycle_elim
        self.cycle_search_bound = cycle_search_bound
        self.track_redundant = track_redundant
        self._pair_seen: set[tuple] = set()
        self._idk: int = algebra.identity_index
        self._span: int = _ann_span(algebra)
        self._is_live = algebra.is_live
        self._fresh = VariableFactory("tmp")
        self._collapsing = False

        # Interning: dense ids for variables, constructors and terms.
        self._var_ids: dict[Variable, int] = {}
        self._vars: list[Variable] = []
        self._ctor_ids: dict[Constructor, int] = {}
        self._ctors: list[Constructor] = []
        self._term_ids: dict[Constructed, int] = {}
        self._terms: list[Constructed] = []
        self._term_ctor: list[int] = []
        self._term_args: list[tuple[int, ...]] = []
        self._term_key: dict[tuple, int] = {}

        # Per-variable bucket columns, indexed by variable id.  A slot
        # is replaced by ``None`` when cycle elimination rehomes the
        # variable onto its representative (mirroring the object
        # solver's popped tables).  ``_pred`` holds only *identity*
        # predecessor ids — the sole consumer is the bounded cycle
        # search, which only follows identity edges.  It is an
        # insertion-ordered dict, like the object solver's, so both
        # searches visit predecessors in the same order and a search
        # cut short by its bound finds the same cycles in either core.
        self._low_src: list[list[int] | None] = []
        self._low_ann: list[list[int] | None] = []
        self._low_set: list[set[int] | None] = []
        self._up_snk: list[list[int] | None] = []
        self._up_ann: list[list[int] | None] = []
        self._up_set: list[set[int] | None] = []
        self._succ_dst: list[list[int] | None] = []
        self._succ_ann: list[list[int] | None] = []
        self._succ_set: list[set[int] | None] = []
        self._pred: list[dict[int, None] | None] = []
        self._proj_rows: list[list[tuple[int, int, int, int]] | None] = []
        self._proj_set: list[set[tuple[int, int, int, int]] | None] = []
        #: Identity out-degree, maintained *monotonically* (never
        #: decremented on rollback or rehome — overcounting only costs a
        #: wasted cycle search, undercounting would miss cycles).  An
        #: inserted edge src→dst can only close an identity cycle if an
        #: identity path dst→…→src exists, which needs dst to have at
        #: least one identity out-edge — this guard skips the bounded
        #: DFS for the common acyclic-frontier insert.
        self._id_out: list[int] = []
        #: Difference propagation: drained-lowers high-water mark.
        self._lower_drained: list[int] = []

        self._met: set[tuple[int, int, int]] = set()
        self.inconsistencies: list[Inconsistency] = []
        # Flat worklist: _W ints per record, consumed by advancing
        # ``_whead`` (no pops, no tuples); compacted when drained dry.
        self._wq: list[int] = []
        self._whead = 0
        # Int union-find (min-name representative, like the object
        # solver); path compression is suppressed while a journal epoch
        # is open because the undo log cannot unwind it.
        self._ufp: dict[int, int] = {}
        self._find_calls = 0
        self._journal: list[list[tuple]] = []
        self.facts_processed = 0
        self.stats = SolverStats()

    # -- interning -------------------------------------------------------------

    def _intern_var(self, var: Variable) -> int:
        vid = self._var_ids.get(var)
        if vid is not None:
            return vid
        vid = len(self._vars)
        self._var_ids[var] = vid
        self._vars.append(var)
        # Columns are allocated lazily on first insert: most variables
        # never receive every fact kind, and eager allocation is the
        # dominant interning cost.  ``None`` doubles as the "no facts
        # here" marker the drain skips over; whether a variable was
        # *rehomed* (vs never used) is answered by the union-find.
        self._low_src.append(None)
        self._low_ann.append(None)
        self._low_set.append(None)
        self._up_snk.append(None)
        self._up_ann.append(None)
        self._up_set.append(None)
        self._succ_dst.append(None)
        self._succ_ann.append(None)
        self._succ_set.append(None)
        self._pred.append(None)
        self._proj_rows.append(None)
        self._proj_set.append(None)
        self._id_out.append(0)
        self._lower_drained.append(0)
        return vid

    def _intern_ctor(self, ctor: Constructor) -> int:
        cid = self._ctor_ids.get(ctor)
        if cid is None:
            cid = len(self._ctors)
            self._ctor_ids[ctor] = cid
            self._ctors.append(ctor)
        return cid

    def _intern_term(self, term: Constructed) -> int:
        tid = self._term_ids.get(term)
        if tid is not None:
            return tid
        cid = self._intern_ctor(term.constructor)
        args = tuple(self._intern_var(a) for a in term.args)
        tid = len(self._terms)
        self._term_ids[term] = tid
        self._terms.append(term)
        self._term_ctor.append(cid)
        self._term_args.append(args)
        self._term_key.setdefault((cid,) + args, tid)
        return tid

    # -- public API ------------------------------------------------------------

    def fresh(self, hint: str | None = None) -> Variable:
        return self._fresh.fresh(hint)

    def add(
        self,
        lhs: SetExpression,
        rhs: SetExpression,
        annotation: Annotation | None = None,
        info: Any = None,
    ) -> None:
        ann = self._idk if annotation is None else annotation
        lhs = self._normalize_lower(lhs)
        rhs = self._normalize_upper(rhs)
        self._dispatch(lhs, rhs, ann)
        self._drain()

    def add_many(self, constraints: Iterable[tuple]) -> None:
        idk = self._idk
        dispatch = self._dispatch
        norm_lower = self._normalize_lower
        norm_upper = self._normalize_upper
        for item in constraints:
            lhs, rhs = item[0], item[1]
            annotation = item[2] if len(item) > 2 else None
            dispatch(
                norm_lower(lhs),
                norm_upper(rhs),
                idk if annotation is None else annotation,
            )
        self._drain()

    @property
    def is_consistent(self) -> bool:
        return not self.inconsistencies

    def check(self) -> None:
        if self.inconsistencies:
            raise NoSolutionError(str(self.inconsistencies[0]))

    def variables(self) -> set[Variable]:
        keys: set[Variable] = set()
        vars_ = self._vars
        for vid in range(len(vars_)):
            for cols in (
                self._low_src[vid],
                self._up_snk[vid],
                self._succ_dst[vid],
                self._proj_rows[vid],
            ):
                if cols:
                    keys.add(vars_[vid])
                    break
            else:
                pred = self._pred[vid]
                if pred:
                    keys.add(vars_[vid])
        # Both sides of every merge (mirrors the object solver).
        for vid, par in self._ufp.items():
            keys.add(vars_[vid])
            keys.add(vars_[par])
        return keys

    def find(self, var: Variable) -> Variable:
        vid = self._var_ids.get(var)
        if vid is None:
            return var
        if not self._ufp:
            return var
        return self._vars[self._find(vid)]

    def _find(self, vid: int) -> int:
        self._find_calls += 1
        parent = self._ufp
        root = parent.get(vid)
        if root is None:
            return vid
        path = []
        while True:
            nxt = parent.get(root)
            if nxt is None:
                break
            path.append(root)
            root = nxt
        if not self._journal:
            for step in path:
                parent[step] = root
            parent[vid] = root
        return root

    def lower_bounds(
        self, var: Variable
    ) -> Iterator[tuple[Constructed, Annotation]]:
        vid = self._var_ids.get(var)
        if vid is None:
            return
        vid = self._find(vid) if self._ufp else vid
        srcs = self._low_src[vid]
        if not srcs:
            return
        anns = self._low_ann[vid]
        terms = self._terms
        for i in range(len(srcs)):
            yield terms[srcs[i]], anns[i]

    def upper_bounds(
        self, var: Variable
    ) -> Iterator[tuple[Constructed, Annotation]]:
        vid = self._var_ids.get(var)
        if vid is None:
            return
        vid = self._find(vid) if self._ufp else vid
        snks = self._up_snk[vid]
        if not snks:
            return
        anns = self._up_ann[vid]
        terms = self._terms
        for i in range(len(snks)):
            yield terms[snks[i]], anns[i]

    def edges_from(self, var: Variable) -> Iterator[tuple[Variable, Annotation]]:
        vid = self._var_ids.get(var)
        if vid is None:
            return
        vid = self._find(vid) if self._ufp else vid
        dsts = self._succ_dst[vid]
        if not dsts:
            return
        anns = self._succ_ann[vid]
        vars_ = self._vars
        for i in range(len(dsts)):
            yield vars_[dsts[i]], anns[i]

    def projection_sinks(
        self, var: Variable
    ) -> Iterator[tuple[Any, int, Variable, Annotation]]:
        vid = self._var_ids.get(var)
        if vid is None:
            return
        vid = self._find(vid) if self._ufp else vid
        rows = self._proj_rows[vid]
        if not rows:
            return
        ctors = self._ctors
        vars_ = self._vars
        for cid, index, target, ann in rows:
            yield ctors[cid], index, vars_[target], ann

    def has_lower(
        self, var: Variable, source: Constructed, annotation: Annotation
    ) -> bool:
        vid = self._var_ids.get(var)
        if vid is None:
            return False
        vid = self._find(vid) if self._ufp else vid
        bucket = self._low_set[vid]
        if not bucket:
            return False
        tid = self._term_ids.get(source)
        if tid is not None and tid * self._span + annotation in bucket:
            return True
        if self._ufp and source.args:
            ctid = (
                self._canonical_tid(tid, self._uf_roots())
                if tid is not None
                else None
            )
            if ctid is None:
                cid = self._ctor_ids.get(source.constructor)
                if cid is None:
                    return False
                args = []
                for a in source.args:
                    avid = self._var_ids.get(a)
                    if avid is None:
                        return False
                    args.append(self._find(avid))
                ctid = self._term_key.get((cid,) + tuple(args))
                if ctid is None:
                    return False
            return ctid * self._span + annotation in bucket
        return False

    def reason(self, fact: FactKey) -> None:
        return None

    # -- backtracking ----------------------------------------------------------

    def mark(self) -> int:
        self._journal.append([])
        self.stats.marks += 1
        return len(self._journal)

    def rollback(self) -> None:
        if not self._journal:
            raise RuntimeError("rollback() without a matching mark()")
        self.stats.rollbacks += 1
        epoch = self._journal.pop()
        span = self._span
        # Pass 1 (reverse order): undo the special records — demerges
        # first restore detached loser columns, then union links unwind
        # — and count fact insertions per (kind, variable).
        counts: dict[tuple[int, int], int] = {}
        for record in reversed(epoch):
            tag = record[0]
            if type(tag) is int:
                key = (tag, record[1])
                counts[key] = counts.get(key, 0) + 1
            elif tag == "met":
                self._met.discard(record[1])
            elif tag == "inc":
                if self.inconsistencies:
                    self.inconsistencies.pop()
            elif tag == "uf":
                self._ufp.pop(record[1], None)
            elif tag == "predfold":
                _t, winner, added = record
                bucket = self._pred[winner]
                for key in added:
                    bucket.pop(key, None)
            elif tag == "demerge":
                (
                    _t,
                    vid,
                    low_src,
                    low_ann,
                    low_set,
                    up_snk,
                    up_ann,
                    up_set,
                    succ_dst,
                    succ_ann,
                    succ_set,
                    pred,
                    proj_rows,
                    proj_set,
                    drained,
                ) = record
                self._low_src[vid] = low_src
                self._low_ann[vid] = low_ann
                self._low_set[vid] = low_set
                self._up_snk[vid] = up_snk
                self._up_ann[vid] = up_ann
                self._up_set[vid] = up_set
                self._succ_dst[vid] = succ_dst
                self._succ_ann[vid] = succ_ann
                self._succ_set[vid] = succ_set
                self._pred[vid] = pred
                self._proj_rows[vid] = proj_rows
                self._proj_set[vid] = proj_set
                self._lower_drained[vid] = drained
        # Pass 2: truncate the counted insertions.  Journal records for
        # one (kind, variable) always describe the *tail* of that
        # variable's column (columns are append-only), so popping the
        # last k entries — after pass 1 restored any detached columns —
        # removes exactly the epoch's facts.
        for (kind, vid), k in counts.items():
            if kind == _LOWER:
                srcs = self._low_src[vid]
                anns = self._low_ann[vid]
                bucket = self._low_set[vid]
                for _ in range(k):
                    bucket.discard(srcs.pop() * span + anns.pop())
                if self._lower_drained[vid] > len(srcs):
                    self._lower_drained[vid] = len(srcs)
            elif kind == _EDGE:
                dsts = self._succ_dst[vid]
                anns = self._succ_ann[vid]
                bucket = self._succ_set[vid]
                pred = self._pred
                idk = self._idk
                for _ in range(k):
                    dst = dsts.pop()
                    ann = anns.pop()
                    bucket.discard(dst * span + ann)
                    if ann == idk:
                        pbucket = pred[dst]
                        if pbucket is not None:
                            pbucket.pop(vid, None)
            elif kind == _UPPER:
                snks = self._up_snk[vid]
                anns = self._up_ann[vid]
                bucket = self._up_set[vid]
                for _ in range(k):
                    bucket.discard(snks.pop() * span + anns.pop())
            else:
                rows = self._proj_rows[vid]
                bucket = self._proj_set[vid]
                for _ in range(k):
                    bucket.discard(rows.pop())

    def _record(self, entry: tuple) -> None:
        if self._journal:
            self._journal[-1].append(entry)

    # -- worklist / solving ----------------------------------------------------

    def pending_count(self) -> int:
        return (len(self._wq) - self._whead) // _W

    def resume(self, budget: Budget | None = None) -> None:
        if budget is not None:
            self.budget = budget
        self._drain()

    def fact_count(self) -> int:
        if self.cycle_elim:
            return self._canonical_count()
        total = 0
        for vid in range(len(self._vars)):
            srcs = self._low_src[vid]
            if srcs:
                total += len(srcs)
            snks = self._up_snk[vid]
            if snks:
                total += len(snks)
            dsts = self._succ_dst[vid]
            if dsts:
                total += len(dsts)
            rows = self._proj_rows[vid]
            if rows:
                total += len(rows)
        return total

    # -- normalization / dispatch ----------------------------------------------

    def _normalize_lower(self, expr: SetExpression) -> SetExpression:
        if isinstance(expr, (Variable, Projection)):
            return expr
        if isinstance(expr, Constructed):
            args = []
            for arg in expr.args:
                if isinstance(arg, Variable):
                    args.append(arg)
                else:
                    var = self.fresh("arg")
                    inner = self._normalize_lower(arg)
                    self._dispatch(inner, var, self._idk)
                    args.append(var)
            return Constructed(expr.constructor, tuple(args))
        raise ConstraintError(f"unsupported left-hand side: {expr!r}")

    def _normalize_upper(self, expr: SetExpression) -> SetExpression:
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
                    inner = self._normalize_upper(arg)
                    self._dispatch(var, inner, self._idk)
                    args.append(var)
            return Constructed(expr.constructor, tuple(args))
        raise ConstraintError(f"unsupported right-hand side: {expr!r}")

    def _dispatch(
        self, lhs: SetExpression, rhs: SetExpression, ann: Annotation
    ) -> None:
        if isinstance(lhs, Variable) and isinstance(rhs, Variable):
            self._enqueue_edge(self._intern_var(lhs), self._intern_var(rhs), ann)
        elif isinstance(lhs, Constructed) and isinstance(rhs, Variable):
            self._enqueue_lower(self._intern_var(rhs), self._intern_term(lhs), ann)
        elif isinstance(lhs, Variable) and isinstance(rhs, Constructed):
            self._enqueue_upper(self._intern_var(lhs), self._intern_term(rhs), ann)
        elif isinstance(lhs, Constructed) and isinstance(rhs, Constructed):
            self._meet(self._intern_term(lhs), self._intern_term(rhs), ann)
        elif isinstance(lhs, Projection):
            if isinstance(rhs, Constructed):
                bridge = self.fresh("proj")
                self._enqueue_proj(
                    self._intern_var(lhs.operand),
                    self._intern_ctor(lhs.constructor),
                    lhs.index,
                    self._intern_var(bridge),
                    ann,
                )
                self._enqueue_upper(
                    self._intern_var(bridge), self._intern_term(rhs), self._idk
                )
            else:
                self._enqueue_proj(
                    self._intern_var(lhs.operand),
                    self._intern_ctor(lhs.constructor),
                    lhs.index,
                    self._intern_var(rhs),
                    ann,
                )
        else:
            raise ConstraintError(f"unsupported constraint {lhs!r} ⊆ {rhs!r}")

    # -- fact insertion --------------------------------------------------------

    def _enqueue_lower(self, var: int, src: int, ann: int) -> None:
        if self.prune_dead and not self._is_live(ann):
            return
        ufp = self._ufp
        if ufp and var in ufp:
            var = self._find(var)
        bucket = self._low_set[var]
        key = src * self._span + ann
        if bucket is None:
            bucket = self._low_set[var] = set()
            self._low_src[var] = []
            self._low_ann[var] = []
        elif key in bucket:
            self.stats.facts_deduped += 1
            return
        bucket.add(key)
        self._low_src[var].append(src)
        self._low_ann[var].append(ann)
        if self._journal:
            self._journal[-1].append((_LOWER, var))
        self.stats.lowers_added += 1
        self._wq.extend((_LOWER, var, src, ann, 0, 0, 0))

    def _enqueue_edge(self, src: int, dst: int, ann: int) -> None:
        if self.prune_dead and not self._is_live(ann):
            return
        ufp = self._ufp
        if ufp:
            if src in ufp:
                src = self._find(src)
            if dst in ufp:
                dst = self._find(dst)
        if src == dst and ann == self._idk:
            return
        bucket = self._succ_set[src]
        key = dst * self._span + ann
        if bucket is None:
            bucket = self._succ_set[src] = set()
            self._succ_dst[src] = []
            self._succ_ann[src] = []
        elif key in bucket:
            self.stats.facts_deduped += 1
            return
        bucket.add(key)
        self._succ_dst[src].append(dst)
        self._succ_ann[src].append(ann)
        identity = ann == self._idk
        if identity:
            pbucket = self._pred[dst]
            if pbucket is None:
                pbucket = self._pred[dst] = {}
            pbucket[src] = None
            self._id_out[src] += 1
        if self._journal:
            self._journal[-1].append((_EDGE, src))
        self.stats.edges_added += 1
        self._wq.extend(
            (_EDGE, src, dst, ann, 0, 0, self._lower_drained[src])
        )
        if (
            identity
            and self.cycle_elim
            and not self._collapsing
            and self._id_out[dst]
        ):
            cycle = self._find_identity_cycle(src, dst)
            if cycle is not None:
                self._collapse(cycle)

    def _enqueue_upper(self, var: int, snk: int, ann: int) -> None:
        if self.prune_dead and not self._is_live(ann):
            return
        ufp = self._ufp
        if ufp and var in ufp:
            var = self._find(var)
        bucket = self._up_set[var]
        key = snk * self._span + ann
        if bucket is None:
            bucket = self._up_set[var] = set()
            self._up_snk[var] = []
            self._up_ann[var] = []
        elif key in bucket:
            self.stats.facts_deduped += 1
            return
        bucket.add(key)
        self._up_snk[var].append(snk)
        self._up_ann[var].append(ann)
        if self._journal:
            self._journal[-1].append((_UPPER, var))
        self.stats.uppers_added += 1
        self._wq.extend(
            (_UPPER, var, snk, ann, 0, 0, self._lower_drained[var])
        )

    def _enqueue_proj(
        self, var: int, ctor: int, index: int, target: int, ann: int
    ) -> None:
        if self.prune_dead and not self._is_live(ann):
            return
        ufp = self._ufp
        if ufp:
            if var in ufp:
                var = self._find(var)
            if target in ufp:
                target = self._find(target)
        bucket = self._proj_set[var]
        row = (ctor, index, target, ann)
        if bucket is None:
            bucket = self._proj_set[var] = set()
            self._proj_rows[var] = []
        elif row in bucket:
            self.stats.facts_deduped += 1
            return
        bucket.add(row)
        self._proj_rows[var].append(row)
        if self._journal:
            self._journal[-1].append((_PROJ, var))
        self.stats.projections_added += 1
        self._wq.extend(
            (_PROJ, var, ctor, index, target, ann, self._lower_drained[var])
        )

    def _meet(self, src: int, snk: int, ann: int) -> None:
        key = (src, snk, ann)
        if key in self._met:
            return
        self._met.add(key)
        self._record(("met", key))
        src_cid = self._term_ctor[src]
        snk_cid = self._term_ctor[snk]
        if src_cid != snk_cid:
            self.inconsistencies.append(
                Inconsistency(self._terms[src], self._terms[snk], ann)
            )
            self._record(("inc",))
            return
        ctor = self._ctors[src_cid]
        src_args = self._term_args[src]
        snk_args = self._term_args[snk]
        for index in range(len(src_args)):
            if ctor.covariant(index + 1):
                self._enqueue_edge(src_args[index], snk_args[index], ann)
            else:
                if ann != self._idk:
                    raise ConstraintError(
                        f"contravariant argument {index + 1} of {ctor.name!r} "
                        "met under a non-identity annotation"
                    )
                self._enqueue_edge(snk_args[index], src_args[index], ann)

    # -- cycle elimination -----------------------------------------------------

    def _find_identity_cycle(self, src: int, dst: int) -> list[int] | None:
        """Bounded reverse DFS over identity predecessor edges (ints).

        The union-find walk is inlined (no path compression): this runs
        on every identity-edge insert and is the hottest non-drain loop.
        """
        if src == dst:
            return None
        parent = self._ufp
        pred = self._pred
        stack = [src]
        parent_map: dict[int, int] = {src: -1}
        visits = 0
        bound = self.cycle_search_bound
        while stack:
            node = stack.pop()
            visits += 1
            if visits > bound:
                return None
            bucket = pred[node]
            if not bucket:
                continue
            for p in bucket:
                root = parent.get(p)
                if root is not None:
                    while True:
                        nxt = parent.get(root)
                        if nxt is None:
                            break
                        root = nxt
                    p = root
                if p == node or p in parent_map:
                    continue
                if p == dst:
                    path = [dst]
                    cur = node
                    while cur != -1:
                        path.append(cur)
                        cur = parent_map[cur]
                    return path
                parent_map[p] = node
                stack.append(p)
        return None

    def _collapse(self, cycle: list[int]) -> None:
        vars_ = self._vars
        winner = min(cycle, key=lambda vid: vars_[vid].name)
        losers = [vid for vid in cycle if vid != winner]
        stats = self.stats
        stats.cycles_collapsed += 1
        stats.vars_merged += len(losers)
        self._collapsing = True
        try:
            for loser in losers:
                self._ufp[loser] = winner
                self._record(("uf", loser))
            for loser in losers:
                self._rehome(loser, winner)
        finally:
            self._collapsing = False

    def _rehome(self, loser: int, winner: int) -> None:
        low_src = self._low_src[loser]
        low_ann = self._low_ann[loser]
        low_set = self._low_set[loser]
        up_snk = self._up_snk[loser]
        up_ann = self._up_ann[loser]
        up_set = self._up_set[loser]
        succ_dst = self._succ_dst[loser]
        succ_ann = self._succ_ann[loser]
        succ_set = self._succ_set[loser]
        pred = self._pred[loser]
        proj_rows = self._proj_rows[loser]
        proj_set = self._proj_set[loser]
        drained = self._lower_drained[loser]
        self._low_src[loser] = None
        self._low_ann[loser] = None
        self._low_set[loser] = None
        self._up_snk[loser] = None
        self._up_ann[loser] = None
        self._up_set[loser] = None
        self._succ_dst[loser] = None
        self._succ_ann[loser] = None
        self._succ_set[loser] = None
        self._pred[loser] = None
        self._proj_rows[loser] = None
        self._proj_set[loser] = None
        self._lower_drained[loser] = 0
        # Fold the loser's predecessor index into the winner's so future
        # reverse-path samples still see the incoming identity edges.
        added: list[int] = []
        if pred:
            wbucket = self._pred[winner]
            if wbucket is None:
                wbucket = self._pred[winner] = {}
            find = self._find
            for raw in pred:
                p = find(raw)
                if p == winner:
                    continue
                if p not in wbucket:
                    wbucket[p] = None
                    added.append(p)
        self._record(("predfold", winner, tuple(added)))
        self._record(
            (
                "demerge",
                loser,
                low_src,
                low_ann,
                low_set,
                up_snk,
                up_ann,
                up_set,
                succ_dst,
                succ_ann,
                succ_set,
                pred,
                proj_rows,
                proj_set,
                drained,
            )
        )
        # Re-enqueue the loser's facts; the enqueue canonicalizes loser
        # ids to the winner, dedups against the winner's entries, and
        # restores the worklist pairing invariant (re-enqueued lowers
        # snapshot the winner's drained counter).
        if low_src:
            for i in range(len(low_src)):
                self._enqueue_lower(loser, low_src[i], low_ann[i])
        if up_snk:
            for i in range(len(up_snk)):
                self._enqueue_upper(loser, up_snk[i], up_ann[i])
        if succ_dst:
            for i in range(len(succ_dst)):
                self._enqueue_edge(loser, succ_dst[i], succ_ann[i])
        if proj_rows:
            for ctor, index, target, ann in proj_rows:
                self._enqueue_proj(loser, ctor, index, target, ann)

    # -- the drain -------------------------------------------------------------

    def _drain(self) -> None:
        algebra = self.algebra
        then = algebra.then
        # Compiled monoids expose a dense composition table: index it
        # inline rather than paying a method call per composition.
        mono = getattr(algebra, "_table", None)
        then_many = getattr(algebra, "then_many", None)
        stats = self.stats
        idk = self._idk
        low_src = self._low_src
        low_ann = self._low_ann
        succ_dst = self._succ_dst
        succ_ann = self._succ_ann
        up_snk = self._up_snk
        up_ann = self._up_ann
        proj_rows = self._proj_rows
        lower_drained = self._lower_drained
        term_args = self._term_args
        term_ctor = self._term_ctor
        enqueue_lower = self._enqueue_lower
        enqueue_edge = self._enqueue_edge
        meet = self._meet
        track = self.track_redundant
        pair_seen = self._pair_seen
        pn = self.pn_projections
        wq = self._wq
        head = self._whead
        budget = self.budget
        check_every = countdown = 0
        if budget is not None and head < len(wq):
            check_every = budget.check_interval
            countdown = check_every
            budget.charge(0, self)
        try:
            while head < len(wq):
                if budget is not None:
                    countdown -= 1
                    if countdown <= 0:
                        countdown = check_every
                        budget.charge(check_every, self)
                kind = wq[head]
                var = wq[head + 1]
                a = wq[head + 2]
                b = wq[head + 3]
                head += _W
                self.facts_processed += 1
                if kind == _LOWER:
                    # a = source term, b = annotation.  Count this lower
                    # as drained *before* processing (facts enqueued
                    # mid-processing must snapshot past it).
                    lower_drained[var] += 1
                    f = b
                    dsts = succ_dst[var]
                    if dsts:
                        anns = succ_ann[var]
                        i, n = 0, len(dsts)
                        while i < n:
                            g = anns[i]
                            dst = dsts[i]
                            i += 1
                            stats.compositions += 1
                            if track:
                                pk = (0, var, a, f, dst, g)
                                if pk in pair_seen:
                                    stats.redundant_compositions += 1
                                else:
                                    pair_seen.add(pk)
                            if g == idk:
                                h = f
                            elif f == idk:
                                h = g
                            elif mono is not None:
                                h = mono[f][g]
                            else:
                                h = then(f, g)
                            enqueue_lower(dst, a, h)
                    snks = up_snk[var]
                    if snks:
                        anns = up_ann[var]
                        i, n = 0, len(snks)
                        while i < n:
                            g = anns[i]
                            snk = snks[i]
                            i += 1
                            stats.compositions += 1
                            if track:
                                pk = (1, var, a, f, snk, g)
                                if pk in pair_seen:
                                    stats.redundant_compositions += 1
                                else:
                                    pair_seen.add(pk)
                            if g == idk:
                                h = f
                            elif f == idk:
                                h = g
                            elif mono is not None:
                                h = mono[f][g]
                            else:
                                h = then(f, g)
                            meet(a, snk, h)
                    rows = proj_rows[var]
                    if rows:
                        args = term_args[a]
                        if args:
                            src_cid = term_ctor[a]
                            i, n = 0, len(rows)
                            while i < n:
                                ctor, index, target, g = rows[i]
                                i += 1
                                if ctor == src_cid:
                                    stats.compositions += 1
                                    if track:
                                        pk = (2, var, a, f, ctor, index, target, g)
                                        if pk in pair_seen:
                                            stats.redundant_compositions += 1
                                        else:
                                            pair_seen.add(pk)
                                    if g == idk:
                                        h = f
                                    elif f == idk:
                                        h = g
                                    elif mono is not None:
                                        h = mono[f][g]
                                    else:
                                        h = then(f, g)
                                    enqueue_edge(args[index - 1], target, h)
                        elif pn:
                            i, n = 0, len(rows)
                            while i < n:
                                ctor, index, target, g = rows[i]
                                i += 1
                                stats.compositions += 1
                                if track:
                                    pk = (3, var, a, f, ctor, index, target, g)
                                    if pk in pair_seen:
                                        stats.redundant_compositions += 1
                                    else:
                                        pair_seen.add(pk)
                                if g == idk:
                                    h = f
                                elif f == idk:
                                    h = g
                                elif mono is not None:
                                    h = mono[f][g]
                                else:
                                    h = then(f, g)
                                enqueue_lower(target, a, h)
                elif kind == _EDGE:
                    # a = destination, b = annotation; snap windows the
                    # lower column (difference propagation).
                    srcs = low_src[var]
                    if srcs:
                        n = len(srcs)
                        snap = wq[head - 1]
                        hi = snap if snap < n else n
                        if hi < n:
                            stats.compositions_saved += n - hi
                        if hi:
                            anns = low_ann[var]
                            g = b
                            if g == idk:
                                i = 0
                                while i < hi:
                                    stats.compositions += 1
                                    if track:
                                        pk = (0, var, srcs[i], anns[i], a, g)
                                        if pk in pair_seen:
                                            stats.redundant_compositions += 1
                                        else:
                                            pair_seen.add(pk)
                                    enqueue_lower(a, srcs[i], anns[i])
                                    i += 1
                            elif (
                                then_many is not None
                                and hi >= NUMPY_MIN_COLUMN
                            ):
                                out = then_many(anns, hi, g)
                                stats.compositions += hi
                                if track:
                                    i = 0
                                    while i < hi:
                                        pk = (0, var, srcs[i], anns[i], a, g)
                                        if pk in pair_seen:
                                            stats.redundant_compositions += 1
                                        else:
                                            pair_seen.add(pk)
                                        i += 1
                                i = 0
                                while i < hi:
                                    enqueue_lower(a, srcs[i], out[i])
                                    i += 1
                            else:
                                i = 0
                                while i < hi:
                                    f = anns[i]
                                    stats.compositions += 1
                                    if track:
                                        pk = (0, var, srcs[i], f, a, g)
                                        if pk in pair_seen:
                                            stats.redundant_compositions += 1
                                        else:
                                            pair_seen.add(pk)
                                    if f == idk:
                                        h = g
                                    elif mono is not None:
                                        h = mono[f][g]
                                    else:
                                        h = then(f, g)
                                    enqueue_lower(a, srcs[i], h)
                                    i += 1
                elif kind == _UPPER:
                    srcs = low_src[var]
                    if srcs:
                        n = len(srcs)
                        snap = wq[head - 1]
                        hi = snap if snap < n else n
                        if hi < n:
                            stats.compositions_saved += n - hi
                        if hi:
                            anns = low_ann[var]
                            g = b
                            i = 0
                            while i < hi:
                                f = anns[i]
                                stats.compositions += 1
                                if track:
                                    pk = (1, var, srcs[i], f, a, g)
                                    if pk in pair_seen:
                                        stats.redundant_compositions += 1
                                    else:
                                        pair_seen.add(pk)
                                if g == idk:
                                    h = f
                                elif f == idk:
                                    h = g
                                elif mono is not None:
                                    h = mono[f][g]
                                else:
                                    h = then(f, g)
                                meet(srcs[i], a, h)
                                i += 1
                else:
                    # a = constructor, b = index; c, d = target, ann.
                    srcs = low_src[var]
                    if srcs:
                        n = len(srcs)
                        snap = wq[head - 1]
                        hi = snap if snap < n else n
                        if hi < n:
                            stats.compositions_saved += n - hi
                        if hi:
                            anns = low_ann[var]
                            target = wq[head - 3]
                            g = wq[head - 2]
                            i = 0
                            while i < hi:
                                src = srcs[i]
                                args = term_args[src]
                                if args and term_ctor[src] == a:
                                    f = anns[i]
                                    stats.compositions += 1
                                    if track:
                                        pk = (2, var, src, f, a, b, target, g)
                                        if pk in pair_seen:
                                            stats.redundant_compositions += 1
                                        else:
                                            pair_seen.add(pk)
                                    if g == idk:
                                        h = f
                                    elif f == idk:
                                        h = g
                                    elif mono is not None:
                                        h = mono[f][g]
                                    else:
                                        h = then(f, g)
                                    enqueue_edge(args[b - 1], target, h)
                                elif pn and not args:
                                    f = anns[i]
                                    stats.compositions += 1
                                    if track:
                                        pk = (3, var, src, f, a, b, target, g)
                                        if pk in pair_seen:
                                            stats.redundant_compositions += 1
                                        else:
                                            pair_seen.add(pk)
                                    if g == idk:
                                        h = f
                                    elif f == idk:
                                        h = g
                                    elif mono is not None:
                                        h = mono[f][g]
                                    else:
                                        h = then(f, g)
                                    enqueue_lower(target, src, h)
                                i += 1
        finally:
            # Persist the cursor so an interrupt (budget) leaves the
            # worklist holding exactly the unresolved records — the
            # invariant checkpoint/resume relies on.
            if head >= len(wq):
                del wq[:]
                self._whead = 0
            else:
                self._whead = head
            stats.find_calls = self._find_calls
        if budget is not None:
            budget.settle(check_every - countdown)

    # -- canonical solved form -------------------------------------------------

    def _uf_roots(self) -> list[int]:
        """Union-find roots as a dense array — one walk per merged var.

        The canonicalization passes resolve every column entry through
        the union-find; a precomputed array turns each of those lookups
        into a list index.
        """
        roots = list(range(len(self._vars)))
        ufp = self._ufp
        if ufp:
            get = ufp.get
            for vid in ufp:
                r = get(vid)
                while True:
                    nxt = get(r)
                    if nxt is None:
                        break
                    r = nxt
                roots[vid] = r
        return roots

    def _canon_array(self) -> list[int]:
        """Fully-resolved representative per variable id: union-find
        roots composed with the full identity-SCC quotient."""
        roots = self._uf_roots()
        rep = self._collapse_map_int(roots)
        if rep:
            return [rep.get(r, r) for r in roots]
        return roots

    def _collapse_map_int(self, roots: list[int]) -> dict[int, int]:
        """Full identity-SCC quotient over current union-find roots."""
        idk = self._idk
        succ_dst = self._succ_dst
        succ_ann = self._succ_ann
        rep: dict[int, int] = {}
        vars_ = self._vars
        for component in strong_components(
            (roots[vid], roots[dst])
            for vid in range(len(vars_))
            if succ_dst[vid]
            for dst, ann in zip(succ_dst[vid], succ_ann[vid])
            if ann == idk
        ):
            root = min(component, key=lambda vid: vars_[vid].name)
            for vid in component:
                if vid != root:
                    rep[vid] = root
        return rep

    def collapse_map(self) -> dict[Variable, Variable]:
        canon = self._canon_array()
        vars_ = self._vars
        out: dict[Variable, Variable] = {}
        for var in self.variables():
            out[var] = vars_[canon[self._var_ids[var]]]
        return out

    def _canonical_tid(self, tid: int, canon: list[int]) -> int:
        """Term id with argument variables resolved through ``canon``."""
        args = self._term_args[tid]
        if not args:
            return tid
        mapped = tuple(canon[a] for a in args)
        if mapped == args:
            return tid
        key = (self._term_ctor[tid],) + mapped
        ctid = self._term_key.get(key)
        if ctid is None:
            term = Constructed(
                self._ctors[self._term_ctor[tid]],
                tuple(self._vars[a] for a in mapped),
            )
            ctid = self._intern_term(term)
        return ctid

    def _group_members(self, canon: list[int]) -> dict[int, list[int]]:
        """Quotient-class members, in first-touched order per class."""
        members: dict[int, list[int]] = {}
        ufp = self._ufp
        for vid in range(len(self._vars)):
            if vid in ufp:
                # Rehomed loser: facts live at the representative.
                members.setdefault(canon[vid], []).append(vid)
                continue
            if (
                self._low_src[vid]
                or self._up_snk[vid]
                or self._succ_dst[vid]
                or self._proj_rows[vid]
            ):
                members.setdefault(canon[vid], []).append(vid)
        return members

    def _canonical_count(self) -> int:
        """`len(list(canonical_facts()))` without building object keys."""
        canon = self._canon_array()
        span = self._span
        idk = self._idk
        total = 0
        members = self._group_members(canon)
        tid_memo: dict[int, int] = {}
        for rep, group in members.items():
            emitted: set = set()
            for vid in group:
                srcs = self._low_src[vid]
                if srcs:
                    anns = self._low_ann[vid]
                    for i in range(len(srcs)):
                        tid = srcs[i]
                        ctid = tid_memo.get(tid)
                        if ctid is None:
                            ctid = self._canonical_tid(tid, canon)
                            tid_memo[tid] = ctid
                        emitted.add(ctid * span + anns[i])
            for vid in group:
                snks = self._up_snk[vid]
                if snks:
                    anns = self._up_ann[vid]
                    for i in range(len(snks)):
                        tid = snks[i]
                        ctid = tid_memo.get(tid)
                        if ctid is None:
                            ctid = self._canonical_tid(tid, canon)
                            tid_memo[tid] = ctid
                        emitted.add(("u", ctid * span + anns[i]))
            for vid in group:
                dsts = self._succ_dst[vid]
                if dsts:
                    anns = self._succ_ann[vid]
                    for i in range(len(dsts)):
                        ann = anns[i]
                        d = canon[dsts[i]]
                        if d == rep and ann == idk:
                            continue
                        emitted.add(("e", d * span + ann))
            for vid in group:
                rows = self._proj_rows[vid]
                if rows:
                    for ctor, index, target, ann in rows:
                        emitted.add(
                            ("p", ctor, index, canon[target], ann)
                        )
            total += len(emitted)
        return total

    def canonical_facts(
        self, cmap: dict[Variable, Variable] | None = None
    ) -> Iterator[FactKey]:
        """The solved form modulo the full identity-cycle quotient.

        Decodes to the same object-level :data:`FactKey` stream as
        :meth:`repro.core.solver.Solver.canonical_facts`, which is what
        the cross-core equivalence suite compares.  ``cmap`` is a
        :meth:`collapse_map` the caller already holds.
        """
        if cmap is None:
            canon = self._canon_array()
        else:
            ids = self._var_ids
            canon = list(range(len(self._vars)))
            for var, rep in cmap.items():
                if var != rep:
                    canon[ids[var]] = ids[rep]
        idk = self._idk
        vars_ = self._vars
        terms = self._terms
        ctors = self._ctors

        def cv(vid: int) -> Variable:
            return vars_[canon[vid]]

        tid_memo: dict[int, Constructed] = {}

        def ct(tid: int) -> Constructed:
            term = tid_memo.get(tid)
            if term is None:
                args = self._term_args[tid]
                if not args:
                    term = terms[tid]
                else:
                    mapped = tuple(cv(a) for a in args)
                    original = terms[tid]
                    if mapped == original.args:
                        term = original
                    else:
                        term = Constructed(original.constructor, mapped)
                tid_memo[tid] = term
            return term

        members = self._group_members(canon)
        by_rep: dict[Variable, list[int]] = {}
        for rep, group in members.items():
            by_rep[vars_[rep]] = group
        for rep_var in sorted(by_rep, key=lambda v: v.name):
            group = sorted(by_rep[rep_var], key=lambda vid: vars_[vid].name)
            emitted: set[FactKey] = set()
            for vid in group:
                srcs = self._low_src[vid]
                if srcs:
                    anns = self._low_ann[vid]
                    for i in range(len(srcs)):
                        key = ("lower", rep_var, ct(srcs[i]), anns[i])
                        if key not in emitted:
                            emitted.add(key)
                            yield key
            for vid in group:
                snks = self._up_snk[vid]
                if snks:
                    anns = self._up_ann[vid]
                    for i in range(len(snks)):
                        key = ("upper", rep_var, ct(snks[i]), anns[i])
                        if key not in emitted:
                            emitted.add(key)
                            yield key
            for vid in group:
                dsts = self._succ_dst[vid]
                if dsts:
                    anns = self._succ_ann[vid]
                    for i in range(len(dsts)):
                        ann = anns[i]
                        d = cv(dsts[i])
                        if d == rep_var and ann == idk:
                            continue
                        key = ("edge", rep_var, d, ann)
                        if key not in emitted:
                            emitted.add(key)
                            yield key
            for vid in group:
                rows = self._proj_rows[vid]
                if rows:
                    for ctor, index, target, ann in rows:
                        key = (
                            "proj",
                            rep_var,
                            ctors[ctor],
                            index,
                            cv(target),
                            ann,
                        )
                        if key not in emitted:
                            emitted.add(key)
                            yield key

    # -- persistence hooks -----------------------------------------------------

    def _pending_object_facts(self) -> Iterator[tuple[tuple, int]]:
        """Worklist backlog decoded to object fact tuples (persist).

        Yields ``(fact, snap)`` pairs shaped exactly like the object
        solver's ``_work`` entries, so checkpoint dumps of an
        interrupted flat solve serialize through the same encoder.
        """
        wq = self._wq
        vars_ = self._vars
        terms = self._terms
        ctors = self._ctors
        head = self._whead
        while head < len(wq):
            kind = wq[head]
            var = vars_[wq[head + 1]]
            a = wq[head + 2]
            b = wq[head + 3]
            snap = wq[head + 6]
            if kind == _LOWER:
                yield ("lower", var, terms[a], b), snap
            elif kind == _EDGE:
                yield ("edge", var, vars_[a], b), snap
            elif kind == _UPPER:
                yield ("upper", var, terms[a], b), snap
            else:
                c = wq[head + 4]
                d = wq[head + 5]
                yield ("proj", var, ctors[a], b, vars_[c], d), snap
            head += _W

    def _met_object_facts(self) -> Iterator[tuple[Constructed, Constructed, int]]:
        """The met-pair memo decoded to object terms (persist)."""
        terms = self._terms
        for src, snk, ann in self._met:
            yield terms[src], terms[snk], ann

    def _install_fact(self, fact: tuple) -> None:
        """Insert one already-closed object fact without draining.

        The persist loader installs a dumped solved form through this:
        the enqueue path interns, dedupes and maintains the adjacency
        mirrors, and the caller discards the worklist records and marks
        the lower columns drained afterwards (:meth:`_settle_loaded`).
        """
        kind = fact[0]
        if kind == "lower":
            _tag, var, src, ann = fact
            self._enqueue_lower(
                self._intern_var(var), self._intern_term(src), ann
            )
        elif kind == "upper":
            _tag, var, snk, ann = fact
            self._enqueue_upper(
                self._intern_var(var), self._intern_term(snk), ann
            )
        elif kind == "edge":
            _tag, src_var, dst_var, ann = fact
            self._enqueue_edge(
                self._intern_var(src_var), self._intern_var(dst_var), ann
            )
        elif kind == "proj":
            _tag, var, ctor, index, target, ann = fact
            self._enqueue_proj(
                self._intern_var(var),
                self._intern_ctor(ctor),
                index,
                self._intern_var(target),
                ann,
            )
        else:
            raise ValueError(f"unknown fact kind {kind!r}")

    def _settle_loaded(self) -> None:
        """Discard install-time worklist records and mark lowers drained.

        A dumped fixpoint already composed every stored lower against
        its neighbor tables; facts added after the load snapshot against
        these high-water marks (difference propagation across the
        snapshot boundary).
        """
        self._wq.clear()
        self._whead = 0
        low_src = self._low_src
        lower_drained = self._lower_drained
        for vid in range(len(low_src)):
            col = low_src[vid]
            lower_drained[vid] = len(col) if col else 0

    def _enqueue_pending(self, fact: tuple, snap: int) -> None:
        """Re-queue one checkpointed pending fact (already in tables)."""
        kind = fact[0]
        wq = self._wq
        if kind == "lower":
            _tag, var, src, ann = fact
            wq.extend(
                (
                    _LOWER,
                    self._intern_var(var),
                    self._intern_term(src),
                    ann,
                    0,
                    0,
                    0,
                )
            )
        elif kind == "upper":
            _tag, var, snk, ann = fact
            wq.extend(
                (
                    _UPPER,
                    self._intern_var(var),
                    self._intern_term(snk),
                    ann,
                    0,
                    0,
                    snap,
                )
            )
        elif kind == "edge":
            _tag, src_var, dst_var, ann = fact
            wq.extend(
                (
                    _EDGE,
                    self._intern_var(src_var),
                    self._intern_var(dst_var),
                    ann,
                    0,
                    0,
                    snap,
                )
            )
        elif kind == "proj":
            _tag, var, ctor, index, target, ann = fact
            wq.extend(
                (
                    _PROJ,
                    self._intern_var(var),
                    self._intern_ctor(ctor),
                    index,
                    self._intern_var(target),
                    ann,
                    snap,
                )
            )
        else:
            raise ValueError(f"unknown pending fact kind {kind!r}")

    # -- flat reachability -----------------------------------------------------

    def reach_table(
        self, through_constructors: bool = True
    ) -> dict[Variable, dict[Constructed, dict[Annotation, None]]]:
        """Constants-with-annotations reaching each representative.

        The int-domain fast path behind
        :class:`repro.core.queries.Reachability`, in its table's shape:
        one row per representative, mapping each reaching constant to
        ``{annotation: origin}``.  The delta propagation runs entirely
        over term ids and packed annotation ints, and only the row keys
        are decoded at the end.  Every origin is ``None`` (no provenance
        in the flat core), so ``witness`` traces are empty — as with
        ``record_reasons=False``.
        """
        algebra = self.algebra
        then = algebra.then
        mono = getattr(algebra, "_table", None)
        is_live = algebra.is_live
        idk = self._idk
        span = self._span
        roots = self._uf_roots()
        term_args = self._term_args
        terms = self._terms
        # vid -> term id -> {annotation: None}
        table: dict[int, dict[int, dict[int, None]]] = {}
        wrappers: dict[int, list[int]] = {}
        work: list[tuple[int, int, int]] = []
        for vid in range(len(self._vars)):
            srcs = self._low_src[vid]
            if not srcs or roots[vid] != vid:
                continue
            row = None
            anns = self._low_ann[vid]
            for i in range(len(srcs)):
                tid = srcs[i]
                args = term_args[tid]
                if not args:
                    if row is None:
                        row = table[vid] = {}
                    found = row.get(tid)
                    if found is None:
                        found = row[tid] = {}
                    found[anns[i]] = None
                    work.append((vid, tid, anns[i]))
                elif through_constructors:
                    packed = vid * span + anns[i]
                    for arg in args:
                        wrappers.setdefault(roots[arg], []).append(packed)
        if through_constructors:
            pop = work.pop
            while work:
                arg, const, inner = pop()
                lifted = wrappers.get(arg)
                if not lifted:
                    continue
                for packed in lifted:
                    outer = packed % span
                    target = packed // span
                    if outer == idk:
                        combined = inner
                    elif inner == idk:
                        combined = outer
                    elif mono is not None:
                        combined = mono[inner][outer]
                    else:
                        combined = then(inner, outer)
                    if not is_live(combined):
                        continue
                    row = table.get(target)
                    if row is None:
                        row = table[target] = {}
                    found = row.get(const)
                    if found is None:
                        found = row[const] = {}
                    if combined not in found:
                        found[combined] = None
                        work.append((target, const, combined))
        vars_ = self._vars
        return {
            vars_[vid]: {terms[tid]: found for tid, found in row.items()}
            for vid, row in table.items()
        }
