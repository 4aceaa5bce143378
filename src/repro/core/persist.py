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

Format version 4 applies the compiled representation to the whole
solved form.  A snapshot holds four tables — variable names,
constructors, constructed terms (a constructor index plus argument
indices) and annotation elements — and every fact is a row of ints
indexing them, in one flat list per kind: ``lowers`` and ``uppers`` as
``[var, term, elem]``, ``edges`` as ``[src, dst, elem]``,
``projections`` as ``[var, ctor, index, target, elem]``.  ``merged``
lists the cycle-elimination merges as ``[loser, representative]``
pairs.  Every table is written in a deterministic order, so one solved
form dumps to the same bytes in every process.

A dump of a solver whose worklist is non-empty — a solve interrupted
by a :class:`~repro.core.budget.Budget` or cancellation — is a
**checkpoint**: it adds the pending worklist, the met-pair memo and
any recorded inconsistencies, in the same int encoding, so a later
:func:`load_solver` + :meth:`~repro.core.solver.Solver.resume`
continues the solve exactly where it stopped and converges to the same
fixpoint an uninterrupted run would have reached.  A fixpoint dump of a
system with no solution writes its inconsistencies too, with their
``(source, sink, annotation)`` triples as its ``met`` memo; a
consistent fixpoint has none of the three sections.

Only version 4 loads: :func:`load_solver` refuses any other version
with the ``ValueError`` its callers treat as a stale snapshot (the
service solves cold and rewrites the file).

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
from typing import Any, Callable, Iterable, Iterator

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

FORMAT_VERSION = 4

#: Difference-propagation snapshot assigned to reloaded pending facts:
#: larger than any lower-bound sequence, so the resumed drain clamps it
#: to the full current window.  Insertion-time snapshots are not dumped
#: (they are an optimization, not state); re-walking the whole window
#: after a reload costs only deduped re-compositions.
_DRAINED_ALL = 1 << 62

#: The fact kinds of a checkpoint's ``pending`` rows, by the code that
#: opens each row.
_PENDING_KINDS = ("lower", "upper", "edge", "proj")
_PENDING_CODES = {kind: code for code, kind in enumerate(_PENDING_KINDS)}


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


class _Encoder:
    """Dump-side interning into the version-4 tables.

    Each distinct variable, constructor, term and annotation gets the
    next index of its table the first time a row names it, so a table's
    order is the order of the rows that first use its entries.
    """

    def __init__(self, to_object: Callable[[Any], Any]):
        self._to_object = to_object
        self._var_ids: dict[Variable, int] = {}
        self.variables: list[str] = []
        self._ctor_ids: dict[Constructor, int] = {}
        self.constructors: list[list] = []
        self._term_ids: dict[Constructed, int] = {}
        self.terms: list[list[int]] = []
        self._elem_ids: dict[Any, int] = {}
        self.elements: list[Any] = []

    def var(self, var: Variable) -> int:
        idx = self._var_ids.get(var)
        if idx is None:
            idx = self._var_ids[var] = len(self.variables)
            self.variables.append(var.name)
        return idx

    def ctor(self, ctor: Constructor) -> int:
        idx = self._ctor_ids.get(ctor)
        if idx is None:
            idx = self._ctor_ids[ctor] = len(self.constructors)
            variance = list(ctor.variance) if ctor.variance is not None else None
            self.constructors.append([ctor.name, ctor.arity, variance])
        return idx

    def term(self, term: Constructed) -> int:
        idx = self._term_ids.get(term)
        if idx is None:
            row = [self.ctor(term.constructor)]
            row.extend(self.var(arg) for arg in term.args)
            idx = self._term_ids[term] = len(self.terms)
            self.terms.append(row)
        return idx

    def elem(self, ann: Any) -> int:
        idx = self._elem_ids.get(ann)
        if idx is None:
            idx = self._elem_ids[ann] = len(self.elements)
            self.elements.append(_encode_annotation(self._to_object(ann)))
        return idx

    def fact_rows(self, facts: Iterable[tuple]) -> dict[str, list[int]]:
        """The rows of ``facts``, one flat list per kind.

        This is the dump's hot path: a slot already in its table costs
        one dict probe, and since facts arrive grouped by variable (a
        canonical walk goes one representative at a time), the primary
        variable is looked up once per run.
        """
        rows: dict[str, list[int]] = {"lower": [], "upper": [], "edge": [], "proj": []}
        var_ids, term_ids, elem_ids = self._var_ids, self._term_ids, self._elem_ids
        last = None
        v = -1
        for fact in facts:
            if fact[1] is not last:
                last = fact[1]
                v = self.var(last)
            kind = fact[0]
            ann = fact[-1]
            e = elem_ids.get(ann)
            if e is None:
                e = self.elem(ann)
            if kind == "edge":
                d = var_ids.get(fact[2])
                rows["edge"] += (v, self.var(fact[2]) if d is None else d, e)
            elif kind == "proj":
                rows["proj"] += (v, self.ctor(fact[2]), fact[3], self.var(fact[4]), e)
            elif kind == "lower" or kind == "upper":
                t = term_ids.get(fact[2])
                rows[kind] += (v, self.term(fact[2]) if t is None else t, e)
            else:
                raise TypeError(f"cannot serialize fact {fact!r}")
        return rows


def _encode_body(
    encoder: _Encoder,
    facts: Iterable[tuple],
    merged: Iterable[tuple[Variable, Variable]],
    checkpoint: tuple[list | None, list, list] | None = None,
) -> dict[str, Any]:
    """The version-4 tables and rows of a solved form.

    ``facts`` are object fact keys; ``merged`` the ``(loser,
    representative)`` pairs; ``checkpoint`` the pending facts, met
    triples and inconsistencies of an interrupted solve, if any.  A
    fixpoint with inconsistencies passes ``None`` for its pending facts
    and writes no ``pending`` section.
    """
    rows = encoder.fact_rows(facts)
    merged_rows: list[int] = []
    for loser, rep in merged:
        merged_rows += (encoder.var(loser), encoder.var(rep))
    extra: dict[str, Any] = {}
    if checkpoint is not None:
        pending, met, inconsistencies = checkpoint
        if pending is not None:
            pending_rows: list[int] = []
            for fact in pending:
                pending_rows.append(_PENDING_CODES[fact[0]])
                pending_rows += encoder.fact_rows((fact,))[fact[0]]
            extra["pending"] = pending_rows
        met_rows: list[int] = []
        for src, snk, ann in met:
            met_rows += (encoder.term(src), encoder.term(snk), encoder.elem(ann))
        inconsistency_rows: list[int] = []
        for inc in inconsistencies:
            inconsistency_rows += (
                encoder.term(inc.source),
                encoder.term(inc.sink),
                encoder.elem(inc.annotation),
            )
        extra["met"] = met_rows
        extra["inconsistencies"] = inconsistency_rows
    return {
        "variables": encoder.variables,
        "constructors": encoder.constructors,
        "terms": encoder.terms,
        "elements": encoder.elements,
        "lowers": rows["lower"],
        "uppers": rows["upper"],
        "edges": rows["edge"],
        "projections": rows["proj"],
        "merged": merged_rows,
        **extra,
    }


def _term_order(term: Constructed) -> tuple:
    ctor = term.constructor
    args = tuple(a.name for a in term.args)
    return (ctor.name, ctor.arity, ctor.variance or (), args)


def _algebra_info(algebra: Any) -> tuple[str, DFA | None, Callable[[Any], Any]]:
    """``(tag, machine, to_object)`` of a serializable algebra."""
    if isinstance(algebra, CompiledMonoidAlgebra):
        return "compiled", algebra.machine, algebra.decode
    if isinstance(algebra, MonoidAlgebra):
        return "monoid", algebra.machine, lambda ann: ann
    if isinstance(algebra, UnannotatedAlgebra):
        return "unannotated", None, lambda ann: ann
    raise TypeError(f"cannot serialize systems over {type(algebra).__name__}")


def dump_solver(solver: Solver | FlatSolver) -> str:
    """Serialize a solver's solved form (and its machine, if any).

    Writes format version 4 (see the module docstring).  A solver with
    a non-empty worklist — a solve interrupted by budget exhaustion or
    cancellation — dumps as a *checkpoint* carrying the pending
    worklist, the met-pair memo and recorded inconsistencies; loading
    one restores the interrupted state and
    :meth:`~repro.core.solver.Solver.resume` finishes the solve.  A
    fixpoint with inconsistencies keeps them, and their meets in the
    memo.

    :class:`~repro.core.flatcore.FlatSolver` systems dump in the *same*
    canonical fact format — the on-disk solved form is a function of the
    solution, not of the core that computed it — plus a ``"core":
    "flat"`` marker so :func:`load_solver` reconstructs the same core.
    A flat dump loads into an object solver (and vice versa) by
    stripping or ignoring that marker.
    """
    algebra_tag, machine, to_object = _algebra_info(solver.algebra)
    # Dumps canonicalize through the *full* identity-cycle quotient
    # (canonical_facts): the on-disk solved form is then a function of
    # the solution alone, not of which cycles the bounded online
    # sampler happened to merge during this particular run.  The
    # loser → representative pairs ride along so merged-away variables
    # stay queryable after reload.
    if solver.cycle_elim:
        moved = solver._moved()
        facts: Iterable[tuple] = solver.canonical_facts(moved)
    else:
        moved = {}
        facts = _raw_facts(solver)
    merged = sorted(moved.items(), key=lambda pair: pair[0].name)
    checkpoint = None
    if solver.pending_count() or solver.inconsistencies:
        checkpoint = _checkpoint(solver, moved, to_object)
    payload: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "core": "flat" if isinstance(solver, FlatSolver) else "object",
        "algebra": algebra_tag,
        "machine": dfa_to_dict(machine) if machine is not None else None,
        "fingerprint": machine_fingerprint(machine),
        "pn_projections": solver.pn_projections,
        "prune_dead": solver.prune_dead,
        "cycle_elim": solver.cycle_elim,
    }
    payload.update(_encode_body(_Encoder(to_object), facts, merged, checkpoint))
    return json.dumps(payload, separators=(",", ":"))


def _raw_facts(solver: Solver | FlatSolver) -> Iterator[tuple]:
    """Every stored fact, variable by variable in name order (dumps of
    solvers without cycle elimination, which have no quotient)."""
    for var in sorted(solver.variables(), key=lambda v: v.name):
        for src, ann in solver.lower_bounds(var):
            yield ("lower", var, src, ann)
        for snk, ann in solver.upper_bounds(var):
            yield ("upper", var, snk, ann)
        for dst, ann in solver.edges_from(var):
            yield ("edge", var, dst, ann)
        for ctor, index, target, ann in solver.projection_sinks(var):
            yield ("proj", var, ctor, index, target, ann)


def _checkpoint(
    solver: Solver | FlatSolver,
    moved: dict[Variable, Variable],
    to_object: Callable[[Any], Any],
) -> tuple[list | None, list, list]:
    """The pending facts, met triples and inconsistencies of an
    interrupted solve, with variable slots resolved through ``moved``.

    The dumped tables are keyed by representatives, so a pending fact
    naming a merged-away variable would pair with nothing after reload;
    met terms canonicalize like the facts, so resumed meets over the
    reloaded tables hit the memo.  The memo is a set, so it is sorted
    into a deterministic order.

    A fixpoint (nothing pending) keeps its inconsistencies, and only
    their triples of the memo: a meet re-derived after reload then
    records no inconsistency twice.  Its pending facts are ``None``.
    """

    def cv(var: Variable) -> Variable:
        return moved.get(var, var)

    def ct(term: Constructed) -> Constructed:
        if any(a in moved for a in term.args):
            return Constructed(term.constructor, tuple(cv(a) for a in term.args))
        return term

    if isinstance(solver, FlatSolver):
        work: Iterable = solver._pending_object_facts()
        met: Iterable = solver._met_object_facts()
    else:
        work, met = solver._work, solver._met
    fixpoint = not solver.pending_count()
    if fixpoint:
        met = [(inc.source, inc.sink, inc.annotation) for inc in solver.inconsistencies]
    pending = []
    for fact, _snap in work:
        kind = fact[0]
        if kind == "lower" or kind == "upper":
            pending.append((kind, cv(fact[1]), ct(fact[2]), fact[3]))
        elif kind == "edge":
            pending.append((kind, cv(fact[1]), cv(fact[2]), fact[3]))
        elif kind == "proj":
            _tag, var, ctor, index, target, ann = fact
            pending.append((kind, cv(var), ctor, index, cv(target), ann))
        else:
            raise TypeError(f"cannot serialize pending fact {fact!r}")

    def met_order(triple: tuple) -> tuple:
        encoded = _encode_annotation(to_object(triple[2]))
        return (
            _term_order(triple[0]),
            _term_order(triple[1]),
            tuple(encoded) if encoded is not None else (),
        )

    met_triples = sorted(
        {(ct(src), ct(snk), ann) for src, snk, ann in met}, key=met_order
    )
    return (None if fixpoint else pending), met_triples, list(solver.inconsistencies)


class SnapshotTables:
    """A snapshot decoded once, ready for a core's installer.

    ``variables``, ``constructors``, ``terms`` and ``elements`` are the
    decoded tables (annotations already in the loading algebra's
    domain); ``lowers``, ``uppers``, ``edges``, ``projections`` and
    ``merged`` are the flat int rows indexing them.  The checkpoint
    sections are decoded to objects: ``pending`` as worklist entries
    ``(fact, snapshot)`` — lowers 0, every other kind
    :data:`_DRAINED_ALL`, so the resumed drain walks their full lower
    windows — ``met`` as ``(source, sink, annotation)`` triples and
    ``inconsistencies`` as :class:`~repro.core.errors.Inconsistency`.
    """

    def __init__(self, data: dict, to_domain: Callable[[Any], Any]):
        self.variables = [Variable(name) for name in data["variables"]]
        self.constructors = [
            Constructor(name, arity, tuple(variance) if variance is not None else None)
            for name, arity, variance in data["constructors"]
        ]
        variables, constructors = self.variables, self.constructors
        self.terms = [
            Constructed(constructors[row[0]], tuple(variables[a] for a in row[1:]))
            for row in data["terms"]
        ]
        self.elements = [to_domain(_decode_annotation(a)) for a in data["elements"]]
        for key, width in (
            ("lowers", 3), ("uppers", 3), ("edges", 3), ("projections", 5),
            ("merged", 2), ("met", 3), ("inconsistencies", 3),
        ):
            if len(data.get(key, ())) % width:
                raise ValueError(
                    f"snapshot section {key!r} is not a list of {width}-int rows"
                )
        self.lowers: list[int] = data["lowers"]
        self.uppers: list[int] = data["uppers"]
        self.edges: list[int] = data["edges"]
        self.projections: list[int] = data["projections"]
        self.merged: list[int] = data.get("merged", [])
        terms, elements = self.terms, self.elements
        self.pending = list(self._pending(data.get("pending", ())))
        it = iter(data.get("met", ()))
        self.met = [(terms[s], terms[k], elements[e]) for s, k, e in zip(it, it, it)]
        it = iter(data.get("inconsistencies", ()))
        self.inconsistencies = [
            Inconsistency(terms[s], terms[k], elements[e])
            for s, k, e in zip(it, it, it)
        ]

    def _pending(self, rows: list[int]) -> Iterator[tuple[tuple, int]]:
        variables, terms, elements = self.variables, self.terms, self.elements
        i = 0
        while i < len(rows):
            code = rows[i]
            if code not in range(len(_PENDING_KINDS)):
                raise ValueError(f"unknown pending fact kind {code!r}")
            kind = _PENDING_KINDS[code]
            if kind == "proj":
                var, ctor, index, target, ann = rows[i + 1 : i + 6]
                fact: tuple = (
                    kind,
                    variables[var],
                    self.constructors[ctor],
                    index,
                    variables[target],
                    elements[ann],
                )
                i += 6
            else:
                var, other, ann = rows[i + 1 : i + 4]
                slot = variables[other] if kind == "edge" else terms[other]
                fact = (kind, variables[var], slot, elements[ann])
                i += 4
            yield fact, (0 if kind == "lower" else _DRAINED_ALL)


def load_solver(text: str, algebra: Any = None) -> Solver | FlatSolver:
    """Reconstruct a solver holding an already-closed solved form.

    Facts are installed directly (the dump was closed, so re-closing is
    unnecessary work the loader skips); further ``add`` calls resume
    online solving from this state.  Checkpoints additionally restore
    the pending worklist of an interrupted solve;
    :meth:`~repro.core.solver.Solver.resume` (or any ``add``) finishes
    it.

    The dump embeds a :func:`machine_fingerprint` of its property
    machine, verified against the machine stored in the dump (detecting
    a corrupted or hand-edited snapshot).  Without ``algebra`` the
    loader builds the dump's own algebra from that machine.  With one,
    the dump must hold a system of the same kind (its ``algebra`` tag)
    solved against the same machine, and the solver runs over that very
    object, so a caller that caches compiled algebras compiles none per
    load and a snapshot can never be silently replayed against the
    wrong property machine.  Every mismatch, and every format other than
    :data:`FORMAT_VERSION`, raises :class:`ValueError`.
    """
    data = json.loads(text)
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported dump version {version!r}")
    algebra_tag = data.get("algebra")
    machine = dfa_from_dict(data["machine"]) if data["machine"] is not None else None
    actual = machine_fingerprint(machine)
    stored = data.get("fingerprint")
    if stored is not None and stored != actual:
        raise ValueError(
            f"snapshot fingerprint {stored!r} does not match its own "
            f"machine ({actual!r}): the dump is corrupt or was edited"
        )
    if algebra is None:
        if machine is None:
            algebra = UnannotatedAlgebra()
        elif algebra_tag == "compiled":
            algebra = CompiledMonoidAlgebra(machine)
        else:
            algebra = MonoidAlgebra(machine)
    else:
        kind, own_machine, _ = _algebra_info(algebra)
        if kind != algebra_tag:
            raise ValueError(
                f"snapshot holds a {algebra_tag!r} system, not a {kind!r} one"
            )
        expected = machine_fingerprint(own_machine)
        if expected != actual:
            raise ValueError(
                f"snapshot was solved against machine {actual!r} but "
                f"{expected!r} was expected: refusing to replay it against "
                "a different property machine"
            )
    flat = data.get("core") == "flat"
    if flat and not hasattr(algebra, "encode"):
        raise ValueError(f"flat dumps require a compiled algebra, got {algebra_tag!r}")
    # A compiled algebra solves over table indices, not functions.
    to_domain = algebra.encode if algebra_tag == "compiled" else (lambda ann: ann)
    tables = SnapshotTables(data, to_domain)
    solver = (FlatSolver if flat else Solver)(
        algebra,
        pn_projections=data.get("pn_projections", False),
        prune_dead=data.get("prune_dead", True),
        cycle_elim=data.get("cycle_elim", True),
    )
    solver._install_snapshot(tables)
    return solver


# -- crash-safe snapshot files -----------------------------------------------

#: First bytes of a checksummed snapshot file.  A file without it is
#: refused as corrupt: every snapshot written since v1.3.0 has it.
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
    is missing or malformed, the recorded size disagrees (truncation),
    or the checksum does not match (bit flips).
    """
    path = pathlib.Path(path)
    raw = path.read_bytes()
    if not raw.startswith(SNAPSHOT_MAGIC.encode("ascii")):
        raise SnapshotCorrupt(str(path), f"no {SNAPSHOT_MAGIC} header")
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
    path: str | pathlib.Path, algebra: Any = None
) -> Solver | FlatSolver:
    """Convenience: :func:`read_snapshot` + :func:`load_solver`."""
    return load_solver(read_snapshot(path), algebra=algebra)
