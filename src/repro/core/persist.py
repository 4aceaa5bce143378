"""Serialization of machines and solved constraint systems.

The BANSHEE toolkit's headline engineering features beyond solving were
persistence and backtracking — serialize a solved constraint graph once
(e.g. for a library), reload it into later analyses, and retract
speculative constraints.  Backtracking lives on the solver
(:meth:`repro.core.solver.Solver.mark` / ``rollback``); this module
provides the persistence half as plain JSON:

* :func:`dfa_to_dict` / :func:`dfa_from_dict` — property machines
  (alphabet symbols must be JSON-representable: strings, or nested
  lists/tuples of strings — tuples round-trip as tagged lists);
* :func:`dump_solver` / :func:`load_solver` — a solved system's facts
  (lower/upper bounds, edges, projection sinks) with representative-
  function annotations.  Loading restores the *solved form* directly —
  no re-closure — and the system remains open: adding constraints
  afterwards resumes online solving on top of the loaded facts.
* :func:`write_snapshot` / :func:`read_snapshot` — crash-safe file IO
  for dumps: write-temp-fsync-rename so a crash mid-dump can never
  leave a half-written file under the snapshot's name, plus a checksum
  header so truncation or bit rot is detected on load as a typed
  :class:`~repro.core.errors.SnapshotCorrupt` instead of silently
  wrong verdicts.

Format version 2 stores each *distinct* annotation once in an
``elements`` table (a solved form repeats the same few monoid elements
across tens of thousands of facts) and every fact carries just an index
into it — the on-disk analog of the compiled algebra's representation.
Version-1 dumps (inline state-mapping tuples per fact) still load.

Format version 3 is emitted only for **checkpoints** — dumps of a
solver whose worklist is non-empty, i.e. a solve interrupted by a
:class:`~repro.core.budget.Budget` or cancellation.  It adds the
pending worklist, the met-pair memo and any recorded inconsistencies,
so a later :func:`load_solver` + :meth:`~repro.core.solver.Solver.resume`
continues the solve exactly where it stopped and converges to the same
fixpoint an uninterrupted run would have reached.  Fully solved dumps
keep emitting version 2 unchanged.

Only :class:`~repro.core.annotations.MonoidAlgebra`,
:class:`~repro.core.annotations.CompiledMonoidAlgebra` and
:class:`~repro.core.annotations.UnannotatedAlgebra` systems are
supported (parametric substitution environments would need their own
encoding; nothing in the applications serializes those).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from collections import deque
from typing import Any, Callable

from repro.core.annotations import (
    CompiledMonoidAlgebra,
    MonoidAlgebra,
    UnannotatedAlgebra,
)
from repro.core.errors import Inconsistency, SnapshotCorrupt
from repro.core.flatcore import FlatSolver
from repro.core.solver import Solver
from repro.core.terms import Constructed, Constructor, Variable
from repro.dfa.automaton import DFA
from repro.dfa.monoid import RepresentativeFunction

FORMAT_VERSION = 2
#: Emitted instead of :data:`FORMAT_VERSION` when the dump is a
#: checkpoint of an interrupted solve (non-empty worklist).
CHECKPOINT_VERSION = 3
SUPPORTED_VERSIONS = (1, 2, 3)

#: Difference-propagation snapshot assigned to reloaded pending facts:
#: larger than any lower-bound sequence, so the resumed drain clamps it
#: to the full current window.  Insertion-time snapshots are not dumped
#: (they are an optimization, not state); re-walking the whole window
#: after a reload costs only deduped re-compositions.
_DRAINED_ALL = 1 << 62


# -- symbols: JSON-safe encoding of hashable alphabet symbols -----------------


def _encode_symbol(symbol: Any) -> Any:
    if isinstance(symbol, str):
        return symbol
    if isinstance(symbol, tuple):
        return {"t": [_encode_symbol(part) for part in symbol]}
    if isinstance(symbol, (int, bool)) or symbol is None:
        return {"v": symbol}
    raise TypeError(f"cannot serialize alphabet symbol {symbol!r}")


def _decode_symbol(data: Any) -> Any:
    if isinstance(data, str):
        return data
    if isinstance(data, dict) and "t" in data:
        return tuple(_decode_symbol(part) for part in data["t"])
    if isinstance(data, dict) and "v" in data:
        return data["v"]
    raise TypeError(f"cannot deserialize alphabet symbol {data!r}")


# -- machines -------------------------------------------------------------------


def dfa_to_dict(machine: DFA) -> dict:
    """A JSON-representable description of a DFA."""
    symbols = sorted(machine.alphabet, key=repr)
    return {
        "version": FORMAT_VERSION,
        "n_states": machine.n_states,
        "start": machine.start,
        "accepting": sorted(machine.accepting),
        "alphabet": [_encode_symbol(s) for s in symbols],
        "delta": [
            [machine.delta[(state, symbol)] for symbol in symbols]
            for state in range(machine.n_states)
        ],
    }


def dfa_from_dict(data: dict) -> DFA:
    symbols = [_decode_symbol(s) for s in data["alphabet"]]
    delta = {
        (state, symbol): row[index]
        for state, row in enumerate(data["delta"])
        for index, symbol in enumerate(symbols)
    }
    return DFA(
        n_states=data["n_states"],
        alphabet=frozenset(symbols),
        start=data["start"],
        accepting=frozenset(data["accepting"]),
        delta=delta,
    )


#: Fingerprint recorded for systems with no property machine (the
#: unannotated algebra) — distinct from every real machine hash.
UNANNOTATED_FINGERPRINT = "unannotated"


def machine_fingerprint(machine: DFA | None) -> str:
    """A stable content hash of a property machine.

    Covers the alphabet, transition table, start state and accepting
    set (everything :func:`dfa_to_dict` serializes), so two machines
    fingerprint equal iff they are the same automaton up to the
    serialized form.  ``None`` (no machine — the unannotated algebra)
    maps to :data:`UNANNOTATED_FINGERPRINT`.
    """
    if machine is None:
        return UNANNOTATED_FINGERPRINT
    data = dfa_to_dict(machine)
    del data["version"]  # the fingerprint is format-version independent
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- solved systems ----------------------------------------------------------------


def _encode_annotation(ann: Any) -> Any:
    if isinstance(ann, RepresentativeFunction):
        return list(ann.mapping)
    if ann == ():
        return None  # the unannotated algebra's identity
    raise TypeError(f"cannot serialize annotation {ann!r}")


def _decode_annotation(data: Any) -> Any:
    if data is None:
        return ()
    return RepresentativeFunction(tuple(data))


class _ElementTable:
    """Dump-side interning of distinct annotations into an index table.

    A solved form repeats the same handful of monoid elements across
    thousands of facts; version-2 dumps store each element's state
    mapping once and let every fact carry just an index.
    """

    def __init__(self, to_object: Callable[[Any], Any]):
        self._to_object = to_object
        self._indices: dict[Any, int] = {}
        self.encoded: list[Any] = []

    def index_of(self, ann: Any) -> int:
        idx = self._indices.get(ann)
        if idx is None:
            idx = self._indices[ann] = len(self.encoded)
            self.encoded.append(_encode_annotation(self._to_object(ann)))
        return idx


def _encode_constructed(expr: Constructed) -> dict:
    ctor = expr.constructor
    return {
        "name": ctor.name,
        "arity": ctor.arity,
        "variance": list(ctor.variance) if ctor.variance is not None else None,
        "args": [arg.name for arg in expr.args],
    }


def _decode_constructed(data: dict) -> Constructed:
    variance = tuple(data["variance"]) if data["variance"] is not None else None
    ctor = Constructor(data["name"], data["arity"], variance)
    return Constructed(ctor, tuple(Variable(n) for n in data["args"]))


def _encode_pending_fact(
    fact: tuple, elements: "_ElementTable", canon_var, canon_term
) -> list:
    """One worklist entry, for checkpoint dumps (version 3).

    Variable slots are canonicalized through the dump's collapse map:
    the dumped tables are keyed by representatives, so a pending fact
    naming a merged-away variable would pair with nothing after reload.
    """
    kind = fact[0]
    if kind == "lower":
        _tag, var, src, ann = fact
        return [
            "lower",
            canon_var(var).name,
            _encode_constructed(canon_term(src)),
            elements.index_of(ann),
        ]
    if kind == "upper":
        _tag, var, snk, ann = fact
        return [
            "upper",
            canon_var(var).name,
            _encode_constructed(canon_term(snk)),
            elements.index_of(ann),
        ]
    if kind == "edge":
        _tag, src_var, dst_var, ann = fact
        return [
            "edge",
            canon_var(src_var).name,
            canon_var(dst_var).name,
            elements.index_of(ann),
        ]
    if kind == "proj":
        _tag, var, ctor, index, target, ann = fact
        return [
            "proj",
            canon_var(var).name,
            _encode_constructor(ctor),
            index,
            canon_var(target).name,
            elements.index_of(ann),
        ]
    raise TypeError(f"cannot serialize pending fact {fact!r}")


def _encode_constructor(ctor: Constructor) -> dict:
    return {
        "name": ctor.name,
        "arity": ctor.arity,
        "variance": list(ctor.variance) if ctor.variance is not None else None,
    }


def dump_solver(solver: Solver | FlatSolver) -> str:
    """Serialize a solver's solved form (and its machine, if any).

    A solver at its fixpoint dumps as format version 2, exactly as
    before.  A solver with a non-empty worklist — a solve interrupted by
    budget exhaustion or cancellation — dumps as a version-3
    *checkpoint* carrying the pending worklist, the met-pair memo and
    recorded inconsistencies; loading one restores the interrupted state
    and :meth:`~repro.core.solver.Solver.resume` finishes the solve.

    :class:`~repro.core.flatcore.FlatSolver` systems dump in the *same*
    canonical fact format — the on-disk solved form is a function of the
    solution, not of the core that computed it — plus a ``"core":
    "flat"`` marker so :func:`load_solver` reconstructs the same core.
    A flat dump loads into an object solver (and vice versa) by
    stripping or ignoring that marker.
    """
    algebra = solver.algebra
    if isinstance(algebra, CompiledMonoidAlgebra):
        algebra_tag = "compiled"
        machine: DFA | None = algebra.machine
        to_object: Callable[[Any], Any] = algebra.decode
    elif isinstance(algebra, MonoidAlgebra):
        algebra_tag = "monoid"
        machine = algebra.machine
        to_object = lambda ann: ann  # noqa: E731 — already an object annotation
    elif isinstance(algebra, UnannotatedAlgebra):
        algebra_tag = "unannotated"
        machine = None
        to_object = lambda ann: ann  # noqa: E731
    else:
        raise TypeError(
            f"cannot serialize systems over {type(algebra).__name__}"
        )
    machine_data = dfa_to_dict(machine) if machine is not None else None
    elements = _ElementTable(to_object)
    lowers = []
    uppers = []
    edges = []
    projections = []
    # Dumps canonicalize through the *full* identity-cycle quotient
    # (canonical_facts): the on-disk solved form is then a function of
    # the solution alone, not of which cycles the bounded online
    # sampler happened to merge during this particular run.  The
    # loser → representative map rides along so merged-away variables
    # stay queryable after reload.
    merged: dict[str, str] = {}
    if solver.cycle_elim:
        cmap = solver.collapse_map()
        merged = {var.name: rep.name for var, rep in cmap.items() if var != rep}

        def canon_var(v: Variable) -> Variable:
            return cmap.get(v, v)

        def canon_term(term: Constructed) -> Constructed:
            if term.args and any(cmap.get(a, a) != a for a in term.args):
                return Constructed(
                    term.constructor, tuple(cmap.get(a, a) for a in term.args)
                )
            return term

        fact_iter = solver.canonical_facts(cmap)
    else:
        canon_var = lambda v: v  # noqa: E731
        canon_term = lambda t: t  # noqa: E731

        def _raw_facts():
            for var in sorted(solver.variables(), key=lambda v: v.name):
                for src, ann in solver.lower_bounds(var):
                    yield ("lower", var, src, ann)
                for snk, ann in solver.upper_bounds(var):
                    yield ("upper", var, snk, ann)
                for dst, ann in solver.edges_from(var):
                    yield ("edge", var, dst, ann)
                for ctor, index, target, ann in solver.projection_sinks(var):
                    yield ("proj", var, ctor, index, target, ann)

        fact_iter = _raw_facts()
    for fact in fact_iter:
        kind = fact[0]
        if kind == "lower":
            _tag, var, src, ann = fact
            lowers.append(
                [var.name, _encode_constructed(src), elements.index_of(ann)]
            )
        elif kind == "upper":
            _tag, var, snk, ann = fact
            uppers.append(
                [var.name, _encode_constructed(snk), elements.index_of(ann)]
            )
        elif kind == "edge":
            _tag, var, dst, ann = fact
            edges.append([var.name, dst.name, elements.index_of(ann)])
        else:
            _tag, var, ctor, index, target, ann = fact
            projections.append(
                [
                    var.name,
                    _encode_constructor(ctor),
                    index,
                    target.name,
                    elements.index_of(ann),
                ]
            )
    payload: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "core": "flat" if isinstance(solver, FlatSolver) else "object",
        "algebra": algebra_tag,
        "machine": machine_data,
        "fingerprint": machine_fingerprint(machine),
        "pn_projections": solver.pn_projections,
        "prune_dead": solver.prune_dead,
        "cycle_elim": solver.cycle_elim,
        "elements": elements.encoded,
        "lowers": lowers,
        "uppers": uppers,
        "edges": edges,
        "projections": projections,
    }
    if merged:
        payload["merged"] = merged
    if solver.pending_count():
        payload["version"] = CHECKPOINT_VERSION
        pending_pairs = (
            solver._pending_object_facts()
            if isinstance(solver, FlatSolver)
            else iter(solver._work)
        )
        payload["pending"] = [
            _encode_pending_fact(fact, elements, canon_var, canon_term)
            for fact, _snap in pending_pairs
        ]
        # The met memo keeps a resumed drain from re-deriving (and the
        # inconsistency list from double-recording) meets the
        # interrupted run already resolved.  Its terms canonicalize like
        # the facts, so resumed meets over the reloaded (canonical)
        # tables hit the memo.
        met_triples = (
            solver._met_object_facts()
            if isinstance(solver, FlatSolver)
            else iter(solver._met)
        )
        payload["met"] = [
            [
                _encode_constructed(canon_term(src)),
                _encode_constructed(canon_term(snk)),
                elements.index_of(ann),
            ]
            for src, snk, ann in met_triples
        ]
        payload["inconsistencies"] = [
            [
                _encode_constructed(inc.source),
                _encode_constructed(inc.sink),
                elements.index_of(inc.annotation),
            ]
            for inc in solver.inconsistencies
        ]
    return json.dumps(payload)


def load_solver(
    text: str, expected_fingerprint: str | None = None
) -> Solver | FlatSolver:
    """Reconstruct a solver holding an already-closed solved form.

    Facts are installed directly (the dump was closed, so re-closing is
    unnecessary work the loader skips); further ``add`` calls resume
    online solving from this state.  Version-3 checkpoints additionally
    restore the pending worklist of an interrupted solve;
    :meth:`~repro.core.solver.Solver.resume` (or any ``add``) finishes
    it.

    The dump embeds a :func:`machine_fingerprint` of its property
    machine.  It is verified against the machine actually stored in the
    dump (detecting a corrupted or hand-edited snapshot), and — when
    ``expected_fingerprint`` is given — against the machine the caller
    intends to use, so a snapshot can never be silently replayed
    against the wrong property machine.  Both mismatches raise
    :class:`ValueError`.
    """
    data = json.loads(text)
    version = data.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported dump version {version!r}")
    algebra_tag = data.get("algebra")
    if algebra_tag is None:  # version-1 dumps carry no tag
        algebra_tag = "monoid" if data["machine"] is not None else "unannotated"
    if data["machine"] is not None:
        machine = dfa_from_dict(data["machine"])
        if algebra_tag == "compiled":
            algebra: Any = CompiledMonoidAlgebra(machine)
        else:
            algebra = MonoidAlgebra(machine)
    else:
        machine = None
        algebra = UnannotatedAlgebra()
    actual = machine_fingerprint(machine)
    stored = data.get("fingerprint")
    if stored is not None and stored != actual:
        raise ValueError(
            f"snapshot fingerprint {stored!r} does not match its own "
            f"machine ({actual!r}): the dump is corrupt or was edited"
        )
    if expected_fingerprint is not None and expected_fingerprint != actual:
        raise ValueError(
            f"snapshot was solved against machine {actual!r} but "
            f"{expected_fingerprint!r} was expected: refusing to replay "
            "it against a different property machine"
        )
    if data.get("core") == "flat":
        return _load_flat(data, algebra, version)
    solver = Solver(
        algebra,
        pn_projections=data.get("pn_projections", False),
        prune_dead=data.get("prune_dead", True),
        cycle_elim=data.get("cycle_elim", True),
    )
    # Loaded facts carry no Reason records (see below), so the solved
    # form cannot back a support graph: DeltaSolver checks this flag
    # and refuses warm-loaded systems with a typed error.
    solver.provenance_complete = False

    # A solved form repeats the same few terms, variables and
    # annotations across tens of thousands of facts; interning them
    # makes loading linear in *distinct* objects, which is what lets a
    # snapshot warm-start beat re-solving.  Loaded facts get no
    # provenance entry: witness reconstruction treats a missing reason
    # exactly like the opaque ``loaded`` rule (the dump carries no
    # antecedents), so populating ``_reasons`` would only burn time.
    variables: dict[str, Variable] = {}
    constructed: dict[tuple, Constructed] = {}
    annotations: dict[tuple | None, Any] = {}

    def intern_var(name: str) -> Variable:
        var = variables.get(name)
        if var is None:
            var = variables[name] = Variable(name)
        return var

    def intern_constructed(cdata: dict) -> Constructed:
        key = (
            cdata["name"],
            cdata["arity"],
            tuple(cdata["variance"]) if cdata["variance"] is not None else None,
            tuple(cdata["args"]),
        )
        expr = constructed.get(key)
        if expr is None:
            ctor = Constructor(key[0], key[1], key[2])
            expr = constructed[key] = Constructed(
                ctor, tuple(intern_var(n) for n in cdata["args"])
            )
        return expr

    def to_domain(ann: Any) -> Any:
        # Map an object-mode annotation into the loaded algebra's domain
        # (a compiled algebra solves over table indices, not functions).
        if algebra_tag == "compiled":
            return algebra.encode(ann)
        return ann

    def intern_annotation(adata: Any) -> Any:
        key = None if adata is None else tuple(adata)
        ann = annotations.get(key)
        if ann is None:
            ann = annotations[key] = to_domain(_decode_annotation(adata))
        return ann

    if version >= 2:
        elements = [
            to_domain(_decode_annotation(adata)) for adata in data["elements"]
        ]

        def annotation_of(ann_data: Any) -> Any:
            return elements[ann_data]

    else:

        def annotation_of(ann_data: Any) -> Any:
            return intern_annotation(ann_data)

    for var_name, src_data, ann_data in data["lowers"]:
        var = intern_var(var_name)
        key = (intern_constructed(src_data), annotation_of(ann_data))
        bucket = solver._lower.setdefault(var, {})
        if key not in bucket:
            bucket[key] = None
            solver._lower_seq.setdefault(var, []).append(key)
    for var_name, snk_data, ann_data in data["uppers"]:
        var = intern_var(var_name)
        key = (intern_constructed(snk_data), annotation_of(ann_data))
        bucket = solver._upper.setdefault(var, {})
        if key not in bucket:
            bucket[key] = None
            solver._upper_seq.setdefault(var, []).append(key)
    for src_name, dst_name, ann_data in data["edges"]:
        src, dst = intern_var(src_name), intern_var(dst_name)
        ann = annotation_of(ann_data)
        bucket = solver._succ.setdefault(src, {})
        if (dst, ann) not in bucket:
            bucket[(dst, ann)] = None
            solver._succ_seq.setdefault(src, []).append((dst, ann))
        solver._pred.setdefault(dst, {})[(src, ann)] = None
    def intern_constructor(cdata: dict) -> Constructor:
        variance = (
            tuple(cdata["variance"]) if cdata["variance"] is not None else None
        )
        return Constructor(cdata["name"], cdata["arity"], variance)

    for var_name, ctor_data, index, target_name, ann_data in data["projections"]:
        var = intern_var(var_name)
        ctor = intern_constructor(ctor_data)
        key = (ctor, index, intern_var(target_name), annotation_of(ann_data))
        bucket = solver._proj.setdefault(var, {})
        if key not in bucket:
            bucket[key] = None
            solver._proj_seq.setdefault(var, []).append(key)

    # Collapse map from cycle elimination: merged-away variables resolve
    # to the representative their facts were dumped under, keeping them
    # queryable (and countable) exactly as in the dumping process.
    for loser_name, rep_name in data.get("merged", {}).items():
        solver._uf.parent[intern_var(loser_name)] = intern_var(rep_name)

    # Difference propagation: a dumped solver already composed each of
    # its stored lowers against the neighbor tables it was dumped with,
    # so they count as drained.  Facts added after the load (including
    # the pending backlog below) snapshot against these counters; a
    # snapshot covering the whole sequence costs at worst re-deduped
    # compositions across the checkpoint boundary, never a missed pair.
    solver._lower_drained = {
        var: len(seq) for var, seq in solver._lower_seq.items()
    }

    # Checkpoint sections (version 3): the interrupted drain's backlog,
    # met memo and inconsistency record.  Restoring them makes resume()
    # continue the solve exactly where the dumping process stopped.
    # Pending facts lost their insertion-time snapshots; ``_DRAINED_ALL``
    # makes the resumed drain walk their full (clamped) lower windows.
    if data.get("pending"):
        work: deque = deque()
        for entry in data["pending"]:
            kind = entry[0]
            if kind == "lower":
                _tag, var_name, src_data, ann_data = entry
                work.append(
                    (
                        (
                            "lower",
                            intern_var(var_name),
                            intern_constructed(src_data),
                            annotation_of(ann_data),
                        ),
                        0,
                    )
                )
            elif kind == "upper":
                _tag, var_name, snk_data, ann_data = entry
                work.append(
                    (
                        (
                            "upper",
                            intern_var(var_name),
                            intern_constructed(snk_data),
                            annotation_of(ann_data),
                        ),
                        _DRAINED_ALL,
                    )
                )
            elif kind == "edge":
                _tag, src_name, dst_name, ann_data = entry
                work.append(
                    (
                        (
                            "edge",
                            intern_var(src_name),
                            intern_var(dst_name),
                            annotation_of(ann_data),
                        ),
                        _DRAINED_ALL,
                    )
                )
            elif kind == "proj":
                _tag, var_name, ctor_data, index, target_name, ann_data = entry
                work.append(
                    (
                        (
                            "proj",
                            intern_var(var_name),
                            intern_constructor(ctor_data),
                            index,
                            intern_var(target_name),
                            annotation_of(ann_data),
                        ),
                        _DRAINED_ALL,
                    )
                )
            else:
                raise ValueError(f"unknown pending fact kind {kind!r}")
        solver._work = work
    for src_data, snk_data, ann_data in data.get("met", ()):
        solver._met.add(
            (
                intern_constructed(src_data),
                intern_constructed(snk_data),
                annotation_of(ann_data),
            )
        )
    for src_data, snk_data, ann_data in data.get("inconsistencies", ()):
        solver.inconsistencies.append(
            Inconsistency(
                intern_constructed(src_data),
                intern_constructed(snk_data),
                annotation_of(ann_data),
            )
        )
    return solver


def _load_flat(data: dict, algebra: Any, version: int) -> FlatSolver:
    """Reconstruct a :class:`FlatSolver` from a ``"core": "flat"`` dump.

    The fact sections are identical to object dumps; installation goes
    through the flat enqueue path (interning, dedupe, adjacency
    mirrors), then the install-time worklist records are discarded and
    the lower columns marked drained — loading restores the solved form
    without re-closure, exactly like the object loader.
    """
    if version < 2:
        raise ValueError("flat dumps are always format version 2 or later")
    if not hasattr(algebra, "encode"):
        raise ValueError(
            f"flat dumps require a compiled algebra, got {data.get('algebra')!r}"
        )
    solver = FlatSolver(
        algebra,
        pn_projections=data.get("pn_projections", False),
        prune_dead=data.get("prune_dead", True),
        cycle_elim=data.get("cycle_elim", True),
    )

    variables: dict[str, Variable] = {}
    constructed: dict[tuple, Constructed] = {}

    def intern_var(name: str) -> Variable:
        var = variables.get(name)
        if var is None:
            var = variables[name] = Variable(name)
        return var

    def intern_constructed(cdata: dict) -> Constructed:
        key = (
            cdata["name"],
            cdata["arity"],
            tuple(cdata["variance"]) if cdata["variance"] is not None else None,
            tuple(cdata["args"]),
        )
        expr = constructed.get(key)
        if expr is None:
            ctor = Constructor(key[0], key[1], key[2])
            expr = constructed[key] = Constructed(
                ctor, tuple(intern_var(n) for n in cdata["args"])
            )
        return expr

    def intern_constructor(cdata: dict) -> Constructor:
        variance = (
            tuple(cdata["variance"]) if cdata["variance"] is not None else None
        )
        return Constructor(cdata["name"], cdata["arity"], variance)

    elements = [
        algebra.encode(_decode_annotation(adata)) for adata in data["elements"]
    ]

    install = solver._install_fact
    for var_name, src_data, ann_data in data["lowers"]:
        install(
            (
                "lower",
                intern_var(var_name),
                intern_constructed(src_data),
                elements[ann_data],
            )
        )
    for var_name, snk_data, ann_data in data["uppers"]:
        install(
            (
                "upper",
                intern_var(var_name),
                intern_constructed(snk_data),
                elements[ann_data],
            )
        )
    for src_name, dst_name, ann_data in data["edges"]:
        install(
            ("edge", intern_var(src_name), intern_var(dst_name), elements[ann_data])
        )
    for var_name, ctor_data, index, target_name, ann_data in data["projections"]:
        install(
            (
                "proj",
                intern_var(var_name),
                intern_constructor(ctor_data),
                index,
                intern_var(target_name),
                elements[ann_data],
            )
        )
    for loser_name, rep_name in data.get("merged", {}).items():
        solver._ufp[solver._intern_var(intern_var(loser_name))] = (
            solver._intern_var(intern_var(rep_name))
        )
    solver._settle_loaded()

    # Checkpoint sections: re-queue the interrupted backlog.  Pending
    # facts lost their insertion-time snapshots; ``_DRAINED_ALL`` makes
    # the resumed drain walk their full (clamped) lower windows.
    for entry in data.get("pending", ()):
        kind = entry[0]
        if kind == "lower":
            _tag, var_name, src_data, ann_data = entry
            solver._enqueue_pending(
                (
                    "lower",
                    intern_var(var_name),
                    intern_constructed(src_data),
                    elements[ann_data],
                ),
                0,
            )
        elif kind == "upper":
            _tag, var_name, snk_data, ann_data = entry
            solver._enqueue_pending(
                (
                    "upper",
                    intern_var(var_name),
                    intern_constructed(snk_data),
                    elements[ann_data],
                ),
                _DRAINED_ALL,
            )
        elif kind == "edge":
            _tag, src_name, dst_name, ann_data = entry
            solver._enqueue_pending(
                (
                    "edge",
                    intern_var(src_name),
                    intern_var(dst_name),
                    elements[ann_data],
                ),
                _DRAINED_ALL,
            )
        elif kind == "proj":
            _tag, var_name, ctor_data, index, target_name, ann_data = entry
            solver._enqueue_pending(
                (
                    "proj",
                    intern_var(var_name),
                    intern_constructor(ctor_data),
                    index,
                    intern_var(target_name),
                    elements[ann_data],
                ),
                _DRAINED_ALL,
            )
        else:
            raise ValueError(f"unknown pending fact kind {kind!r}")
    for src_data, snk_data, ann_data in data.get("met", ()):
        solver._met.add(
            (
                solver._intern_term(intern_constructed(src_data)),
                solver._intern_term(intern_constructed(snk_data)),
                elements[ann_data],
            )
        )
    for src_data, snk_data, ann_data in data.get("inconsistencies", ()):
        solver.inconsistencies.append(
            Inconsistency(
                intern_constructed(src_data),
                intern_constructed(snk_data),
                elements[ann_data],
            )
        )
    return solver


# -- crash-safe snapshot files -----------------------------------------------

#: First bytes of a checksummed snapshot file.  Files without it are
#: treated as legacy bare-JSON dumps (readable, but unverifiable).
SNAPSHOT_MAGIC = "#repro-snapshot"

#: Seam for fault injection (:mod:`repro.testing.faults` patches this to
#: simulate a crash at the commit point); always ``os.replace`` in
#: production.
_rename = os.replace


def snapshot_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def write_snapshot(path: str | pathlib.Path, text: str) -> None:
    """Atomically persist a dump to ``path`` with a checksum header.

    The write-temp → flush → fsync → rename dance guarantees a reader
    (or a restarted process) only ever sees either the previous complete
    snapshot or the new complete snapshot — never a torn one, no matter
    when the writer crashes.  The header records a SHA-256 of the
    payload so damage *after* a successful write (truncation, bit rot)
    is caught by :func:`read_snapshot`.
    """
    path = pathlib.Path(path)
    payload = text.encode("utf-8")
    header = (
        f"{SNAPSHOT_MAGIC} sha256={snapshot_digest(payload)} "
        f"size={len(payload)}\n"
    ).encode("ascii")
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, header + payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        _rename(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Make the rename itself durable where the platform allows it.
    try:
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def read_snapshot(path: str | pathlib.Path) -> str:
    """Read a snapshot file, verifying its checksum header.

    Raises :class:`~repro.core.errors.SnapshotCorrupt` when the header
    is malformed, the recorded size disagrees (truncation), or the
    checksum does not match (bit flips).  Files that never had a header
    (legacy bare dumps) are returned as-is — their internal fingerprint
    check in :func:`load_solver` is then the only guard.
    """
    path = pathlib.Path(path)
    raw = path.read_bytes()
    if not raw.startswith(SNAPSHOT_MAGIC.encode("ascii")):
        return raw.decode("utf-8")
    newline = raw.find(b"\n")
    if newline < 0:
        raise SnapshotCorrupt(str(path), "header line is truncated")
    header = raw[:newline].decode("ascii", "replace")
    payload = raw[newline + 1 :]
    fields = dict(
        part.split("=", 1) for part in header.split()[1:] if "=" in part
    )
    expected_digest = fields.get("sha256")
    expected_size = fields.get("size")
    if expected_digest is None or expected_size is None:
        raise SnapshotCorrupt(str(path), f"malformed header {header!r}")
    try:
        size = int(expected_size)
    except ValueError:
        raise SnapshotCorrupt(str(path), f"malformed size in header {header!r}")
    if len(payload) != size:
        raise SnapshotCorrupt(
            str(path),
            f"payload is {len(payload)} bytes but header promised {size} "
            "(truncated or padded)",
        )
    actual = snapshot_digest(payload)
    if actual != expected_digest:
        raise SnapshotCorrupt(
            str(path),
            f"checksum mismatch (header {expected_digest[:12]}…, "
            f"payload {actual[:12]}…)",
        )
    return payload.decode("utf-8")


# -- write-ahead journal record framing ---------------------------------------

#: Header line opening a journal file.  Files that do not start with it
#: are not journals (or lost their first sectors) and are rejected.
JOURNAL_MAGIC = "#repro-journal v1"

#: Per-record line prefix.  A journal is the magic line followed by zero
#: or more record lines, each ``J <sha256-16> <size> <payload>\n`` with
#: the checksum and byte size covering the payload exactly — a record is
#: trusted iff its own line vouches for it, independent of its
#: neighbors, which is what lets recovery replay the intact prefix of a
#: torn file.
JOURNAL_RECORD_TAG = "J"


def frame_journal_record(payload: dict) -> bytes:
    """One checksummed record line (with trailing newline) for ``payload``.

    The payload is compact single-line JSON; the frame records its
    SHA-256 prefix and byte length so :func:`parse_journal_record`
    detects truncation (torn tail) and bit flips without trusting any
    surrounding bytes.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    digest = hashlib.sha256(blob).hexdigest()[:16]
    return (
        f"{JOURNAL_RECORD_TAG} {digest} {len(blob)} ".encode("ascii")
        + blob
        + b"\n"
    )


def parse_journal_record(line: bytes, path: str = "<journal>") -> dict:
    """Decode and verify one framed record line (no trailing newline).

    Raises :class:`~repro.core.errors.JournalCorrupt` when the frame is
    malformed, the size disagrees (truncation) or the checksum does not
    match (bit rot).  ``torn`` is left False here — only the reader
    knows whether the damage sits at the tail.
    """
    from repro.core.errors import JournalCorrupt

    parts = line.split(b" ", 3)
    if len(parts) != 4 or parts[0] != JOURNAL_RECORD_TAG.encode("ascii"):
        raise JournalCorrupt(path, f"malformed record frame {line[:40]!r}")
    _tag, digest, size_text, blob = parts
    try:
        size = int(size_text)
    except ValueError:
        raise JournalCorrupt(path, f"malformed record size {size_text!r}")
    if len(blob) != size:
        raise JournalCorrupt(
            path,
            f"record payload is {len(blob)} bytes but frame promised {size} "
            "(truncated or padded)",
        )
    actual = hashlib.sha256(blob).hexdigest()[:16]
    if actual != digest.decode("ascii", "replace"):
        raise JournalCorrupt(
            path,
            f"record checksum mismatch (frame {digest!r}, payload {actual!r})",
        )
    try:
        payload = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise JournalCorrupt(path, f"record is not JSON: {exc}")
    if not isinstance(payload, dict):
        raise JournalCorrupt(path, "record payload is not an object")
    return payload


def read_journal(path: str | pathlib.Path) -> tuple[list[dict], str | None]:
    """Read a journal file: ``(intact records, tail damage or None)``.

    Damage confined to the *last* record line — a torn frame, a missing
    trailing newline, a checksum mismatch right at the tail — is the
    signature of a crash mid-append: the intact prefix is returned along
    with a description of the tear, and the caller decides whether to
    trust it.  Damage anywhere *before* the tail (or a missing/forged
    magic line) means the file cannot be trusted at all and raises
    :class:`~repro.core.errors.JournalCorrupt` with ``torn=False``.
    """
    from repro.core.errors import JournalCorrupt

    path = pathlib.Path(path)
    raw = path.read_bytes()
    name = str(path)
    if not raw.startswith(JOURNAL_MAGIC.encode("ascii")):
        raise JournalCorrupt(name, "missing journal magic header")
    lines = raw.split(b"\n")
    # A well-formed journal ends with a newline, so the final split
    # element is empty; anything else is an unterminated (torn) tail.
    torn_tail = lines[-1] != b""
    body = lines[1:-1] if not torn_tail else lines[1:]
    records: list[dict] = []
    for index, line in enumerate(body):
        if not line:
            continue
        at_tail = index == len(body) - 1
        try:
            records.append(parse_journal_record(line, name))
        except JournalCorrupt as exc:
            if at_tail:
                return records, f"torn tail record: {exc.detail}"
            raise JournalCorrupt(
                name,
                f"record {index} is damaged before the tail: {exc.detail}",
            )
    if torn_tail and (not body or body[-1] == b""):
        return records, "torn tail record: empty unterminated line"
    return records, None


def write_solver_snapshot(
    path: str | pathlib.Path, solver: Solver | FlatSolver
) -> None:
    """Convenience: :func:`dump_solver` + :func:`write_snapshot`."""
    write_snapshot(path, dump_solver(solver))


def load_solver_snapshot(
    path: str | pathlib.Path, expected_fingerprint: str | None = None
) -> Solver | FlatSolver:
    """Convenience: :func:`read_snapshot` + :func:`load_solver`."""
    return load_solver(
        read_snapshot(path), expected_fingerprint=expected_fingerprint
    )
