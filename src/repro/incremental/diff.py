"""Source-edit front end: map a program edit to a constraint patch.

:class:`~repro.modelcheck.checker.AnnotatedChecker` names node
variables ``S<node_id>`` with *globally* sequential node ids, so
inserting one statement shifts every later id and a textual diff of two
encodings touches nearly every constraint.  The encoder here produces
the same Section 6.1 constraint system under **edit-stable names**:

* node variables are ``S@<function>#<j>`` where ``j`` is the node's
  index within its function's CFG (deterministic for a given function
  body, independent of every other function);
* call wrappers are ``o@<function>#<j>`` keyed the same way, replacing
  the global call-site counter.

With per-function names, editing one function perturbs only that
function's constraints, so ``diff_programs`` — a multiset diff of the
two encodings — yields a patch whose size tracks the edit, which is
what lets :class:`~repro.incremental.delta.DeltaSolver` repair in time
proportional to the affected cone.

:class:`StableCheck` bundles the pieces into the object the analysis
service keeps hot per property: source + CFG + solved system + ledger +
delta engine, with ``apply_source`` advancing it to an edited program
in one call.
"""

from __future__ import annotations

import re
from typing import Any

from repro.cfg.builder import build_cfg
from repro.cfg.graph import CFGNode, ProgramCFG
from repro.core.annotations import CompiledMonoidAlgebra
from repro.core.budget import Budget
from repro.core.queries import Reachability
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable
from repro.incremental.delta import (
    DeltaSolver,
    Patch,
    UnsupportedConstraintError,
    _constraint_parts,
)
from repro.modelcheck.checker import CheckResult, Violation
from repro.modelcheck.properties import Property

__all__ = ["StableCheck", "diff_constraints", "diff_programs", "stable_encode"]

_PC = Constructor("pc", 0)()


def _node_variables(
    cfg: ProgramCFG, known: dict[str, list[Variable]] | None = None
) -> dict[int, Variable]:
    """The node-id → edit-stable variable map (names only, no encode).

    ``known`` maps function names to the ``S@f#j`` variables made for
    them so far, by node index; they are reused, and extended, instead
    of being formatted again.
    """
    node_vars: dict[int, Variable] = {}
    for fname, fcfg in cfg.functions.items():
        names = [] if known is None else known.setdefault(fname, [])
        for j in range(len(names), len(fcfg.nodes)):
            names.append(Variable(f"S@{fname}#{j}"))
        for node, var in zip(fcfg.nodes, names):
            node_vars[node.id] = var
    return node_vars


def _encode_function(
    cfg: ProgramCFG, fname: str, prop: Property, algebra: Any
) -> list[tuple]:
    """The constraints contributed by one function of ``cfg``.

    Depends only on the function's own body and the *classification* of
    its calls (defined vs primitive): callee entry/exit variables are
    always ``S@<callee>#0`` / ``S@<callee>#1`` (the builder creates a
    function's entry and exit nodes first), so no callee body is
    consulted.  That is what makes chunk-level re-encoding exact — a
    function encoded inside a full program and inside a stub harness
    produce the identical batch.
    """
    identity = algebra.identity
    fcfg = cfg.functions[fname]
    node_vars = {
        node.id: Variable(f"S@{fname}#{j}")
        for j, node in enumerate(fcfg.nodes)
    }
    batch: list[tuple] = []
    for j, node in enumerate(fcfg.nodes):
        src = node_vars[node.id]
        if node.kind == "call":
            wrapper = Constructor(f"o@{fname}#{j}", 1)
            callee = node.call.callee
            batch.append(
                (wrapper(src), Variable(f"S@{callee}#0"), identity, node)
            )
            exit_var = Variable(f"S@{callee}#1")
            for succ in cfg.successors(node):
                batch.append(
                    (
                        wrapper.proj(1, exit_var),
                        node_vars[succ.id],
                        identity,
                        node,
                    )
                )
            continue
        event = prop.event_of(node)
        if event is None:
            annotation = identity
        else:
            symbol, labels = event
            if labels is not None:
                raise UnsupportedConstraintError(
                    f"property {prop.name!r} is parametric; incremental "
                    "re-solving supports plain properties only"
                )
            annotation = algebra.symbol(symbol)
        for succ in cfg.successors(node):
            batch.append((src, node_vars[succ.id], annotation, node))
    return batch


def stable_encode(
    cfg: ProgramCFG, prop: Property, algebra: Any
) -> tuple[list[tuple], dict[int, Variable]]:
    """Encode ``cfg`` with edit-stable names.

    Returns the constraint batch (in ``add_many`` item shape, with the
    originating CFG node as ``info``) and the node-id → variable map
    the queries need.
    """
    identity = algebra.identity
    batch: list[tuple] = [(_PC, Variable("S@main#0"), identity, None)]
    cfg.main  # raises MissingMainError when the program has no main
    for fname in cfg.functions:
        batch.extend(_encode_function(cfg, fname, prop, algebra))
    return batch, _node_variables(cfg)


#: A function definition header at brace depth 0: return type (one or
#: more identifier-ish tokens), the function name, an argument list
#: opening on the same line.
_FN_HEADER = re.compile(r"^\s*[A-Za-z_][\w\s\*]*?([A-Za-z_]\w*)\s*\(")


def _split_functions(source: str) -> list[tuple[str, str]] | None:
    """Split mini-C source into ``(function name, chunk text)`` pairs.

    Purely textual: tracks brace depth (quote-aware) and cuts at each
    depth-0 function header.  Returns ``None`` — caller falls back to a
    whole-program re-encode — for anything it does not recognize:
    stray top-level text, unbalanced braces, headers split across
    lines, or duplicate function names.  The splitter never needs to be
    *complete*; it needs to be *honest* about when it worked.
    """
    chunks: list[tuple[str, str]] = []
    seen: set[str] = set()
    name: str | None = None
    lines: list[str] = []
    depth = 0
    opened = False
    for line in source.splitlines():
        if name is None:
            if not line.strip():
                continue
            match = _FN_HEADER.match(line)
            if match is None:
                return None  # top-level text we do not understand
            name = match.group(1)
            if name in seen:
                return None
            seen.add(name)
            lines = []
            opened = False
        lines.append(line)
        if "{" in line or "}" in line:
            if '"' in line or "'" in line:
                # quote-aware slow scan, for the rare brace+string line
                quote: str | None = None
                escaped = False
                for ch in line:
                    if escaped:
                        escaped = False
                        continue
                    if ch == "\\":
                        escaped = True
                        continue
                    if quote is not None:
                        if ch == quote:
                            quote = None
                        continue
                    if ch in "\"'":
                        quote = ch
                    elif ch == "{":
                        depth += 1
                        opened = True
                    elif ch == "}":
                        depth -= 1
                        if depth < 0:
                            return None
            else:
                opens = line.count("{")
                if opens:
                    opened = True
                depth += opens - line.count("}")
                if depth < 0:
                    return None
            if opened and depth == 0:
                chunks.append((name, "\n".join(lines)))
                name = None
    if name is not None or not chunks:
        return None  # unterminated function (or nothing at all)
    return chunks


def _encode_chunk(
    name: str,
    text: str,
    defined: "list[str] | set[str]",
    prop: Property,
    algebra: Any,
) -> list[tuple]:
    """Encode one function's chunk in isolation.

    The chunk is parsed inside a harness of empty stubs for every other
    defined function, so call classification (``"call"`` node vs
    primitive ``"stmt"``) matches the full program's.  By the
    :func:`_encode_function` invariant the resulting batch is identical
    to the one a whole-program encode would produce for this function.

    Only names that textually occur in the chunk get a stub — a name
    that never appears cannot be called, and a substring false positive
    merely adds a harmless unused stub — so the harness stays
    edit-sized even in programs with hundreds of functions.
    """
    stubs = "\n".join(
        f"void {other}() {{}}"
        for other in defined
        if other != name and other in text
    )
    cfg = build_cfg(text + "\n" + stubs)
    return _encode_function(cfg, name, prop, algebra)


def diff_constraints(
    old: list[tuple], new: list[tuple], identity: Any
) -> Patch:
    """Multiset diff of two constraint batches.

    Constraints are identified by ``(lhs, rhs, annotation)`` — the
    ``info`` payload (the originating CFG node) rides along on
    additions and is irrelevant to retractions.  Order is preserved
    from the input batches, so patches are deterministic.
    """

    def key(item: tuple) -> tuple:
        lhs, rhs, ann, _info = _constraint_parts(item, identity)
        return (lhs, rhs, ann)

    surplus: dict[tuple, int] = {}
    old_by_key: dict[tuple, list[tuple]] = {}
    for item in old:
        k = key(item)
        surplus[k] = surplus.get(k, 0) + 1
        old_by_key.setdefault(k, []).append(item)
    adds: list[tuple] = []
    for item in new:
        k = key(item)
        if surplus.get(k, 0) > 0:
            surplus[k] -= 1
        else:
            adds.append(item)
    retracts: list[tuple] = []
    for item in old:
        k = key(item)
        missing = surplus.get(k, 0)
        if missing > 0:
            surplus[k] = missing - 1
            lhs, rhs, ann, _info = _constraint_parts(item, identity)
            retracts.append((lhs, rhs, ann))
    return Patch(tuple(adds), tuple(retracts))


def diff_programs(
    old_source: str, new_source: str, prop: Property, algebra: Any
) -> Patch:
    """The constraint patch taking ``old_source``'s system to ``new_source``'s.

    Both programs are encoded with the stable encoder under the *same*
    algebra (annotation values must compare equal across the two
    encodings), then diffed.  The patch applies to a system solved from
    ``stable_encode(old_source)`` — i.e. a :class:`StableCheck`.
    """
    old_batch, _ = stable_encode(build_cfg(old_source), prop, algebra)
    new_batch, _ = stable_encode(build_cfg(new_source), prop, algebra)
    return diff_constraints(old_batch, new_batch, algebra.identity)


class StableCheck:
    """A patchable model-checking session over one program + property.

    Solves ``source`` against ``prop`` under the stable encoding and
    keeps everything a patch needs: the constraint ledger, the
    :class:`DeltaSolver`, and the node-variable map for queries.
    ``apply_source`` advances the session to an edited program by
    diffing encodings and patching — the operation the service's
    ``patch`` request runs per keystroke.

    The front end is incremental too.  The source is split into
    per-function chunks textually; an edit that touches *k* functions
    re-parses, re-encodes and diffs only those *k* chunks, so the whole
    patch pipeline — not just the solver repair — runs in time
    proportional to the edit, not the program.  Whenever the splitter
    cannot vouch for the source (unrecognized top-level text, a
    function added or removed, a chunk that fails to parse alone) the
    session silently falls back to a whole-program re-encode, which is
    always correct, merely slower.  The full CFG is rebuilt lazily: a
    patch invalidates it, and only queries that need program points
    (``check``/``has_violation``/``node_var``) pay for the re-parse.
    """

    def __init__(
        self,
        source: str,
        prop: Property,
        algebra: Any | None = None,
        budget: Budget | None = None,
        cycle_elim: bool = True,
    ):
        self.property = prop
        self.algebra = (
            algebra if algebra is not None else CompiledMonoidAlgebra(prop.machine)
        )
        self.pc = _PC
        self.solver = Solver(
            self.algebra,
            record_reasons=True,
            budget=budget,
            cycle_elim=cycle_elim,
        )
        self.source = source
        cfg = build_cfg(source)
        self._cfg: ProgramCFG | None = cfg
        self._pc_constraint = (
            _PC, Variable("S@main#0"), self.algebra.identity, None
        )
        self.constraints, batches = self._full_encode(cfg)
        # every patch rebuilds the node-variable map; it reuses these
        self._fn_vars: dict[str, list[Variable]] = {}
        self._vars: dict[int, Variable] | None = _node_variables(
            cfg, self._fn_vars
        )
        self.solver.add_many(self.constraints)
        self.delta = DeltaSolver(self.solver, self.constraints)
        self._reachability: Reachability | None = None
        # chunk caches (the incremental front end); _fn_texts is None
        # when the splitter could not take responsibility for source
        self._fn_order: list[str] = list(cfg.functions)
        self._fn_texts: dict[str, str] | None = None
        self._fn_batches: dict[str, list[tuple]] = {}
        self._install_chunks(source, cfg, batches)

    # -- encoding --------------------------------------------------------------

    def _full_encode(
        self, cfg: ProgramCFG
    ) -> tuple[list[tuple], dict[str, list[tuple]]]:
        """:func:`stable_encode`, but keeping the per-function batches."""
        cfg.main  # raises MissingMainError when the program has no main
        batches = {
            fname: _encode_function(cfg, fname, self.property, self.algebra)
            for fname in cfg.functions
        }
        constraints = [self._pc_constraint]
        for fname in cfg.functions:
            constraints.extend(batches[fname])
        return constraints, batches

    def _install_chunks(
        self, source: str, cfg: ProgramCFG, batches: dict[str, list[tuple]]
    ) -> None:
        """Arm (or disarm) the chunk cache for the current source."""
        chunks = _split_functions(source)
        if chunks is None or [n for n, _ in chunks] != list(cfg.functions):
            # the splitter and the parser disagree about what the
            # program contains — incremental mode stays off
            self._fn_order = list(cfg.functions)
            self._fn_texts = None
            self._fn_batches = {}
            return
        self._fn_order = [n for n, _ in chunks]
        self._fn_texts = dict(chunks)
        self._fn_batches = batches

    # -- patching --------------------------------------------------------------

    def apply_source(self, new_source: str) -> "PatchOutcome":
        """Patch the solved system to match ``new_source``.

        On success the session *is* the edited program's session.  On
        failure the solver may be mid-repair: the session must be
        discarded and rebuilt cold (the caller's responsibility — the
        engine does exactly that).
        """
        outcome = self._apply_incremental(new_source)
        if outcome is None:
            outcome = self._apply_full(new_source)
        return outcome

    def _apply_incremental(self, new_source: str) -> "PatchOutcome | None":
        """The chunk path: re-encode only the functions the edit touched.

        Returns ``None`` when it cannot take responsibility — the chunk
        cache is disarmed, the new source does not split, the function
        set changed (call classification could shift in *unchanged*
        functions), or a changed chunk fails to parse in isolation.
        ``None`` always means "run the full path", never "give up".
        """
        if self._fn_texts is None:
            return None
        chunks = _split_functions(new_source)
        if chunks is None:
            return None
        new_order = [name for name, _ in chunks]
        if set(new_order) != set(self._fn_order):
            return None
        adds: list[tuple] = []
        retracts: list[tuple] = []
        changed: dict[str, tuple[str, list[tuple]]] = {}
        identity = self.algebra.identity
        for name, text in chunks:
            if text == self._fn_texts[name]:
                continue
            try:
                new_batch = _encode_chunk(
                    name, text, new_order, self.property, self.algebra
                )
            except (ValueError, KeyError):
                # the chunk does not parse on its own (or parses to
                # something without this function) — let the full path
                # produce the authoritative result or diagnostic
                return None
            chunk_patch = diff_constraints(
                self._fn_batches[name], new_batch, identity
            )
            adds.extend(chunk_patch.adds)
            retracts.extend(chunk_patch.retracts)
            changed[name] = (text, new_batch)
        stats = self.delta.apply(Patch(tuple(adds), tuple(retracts)))
        # commit: refresh the touched chunks, rebuild the ledger in the
        # new source order, and invalidate the lazily-rebuilt CFG
        self.source = new_source
        self._fn_order = new_order
        assert self._fn_texts is not None
        for name, (text, batch) in changed.items():
            self._fn_texts[name] = text
            self._fn_batches[name] = batch
        constraints = [self._pc_constraint]
        for name in new_order:
            constraints.extend(self._fn_batches[name])
        self.constraints = constraints
        self._cfg = None
        self._vars = None
        self._reachability = None
        return PatchOutcome(
            patch=Patch(tuple(adds), tuple(retracts)), stats=stats
        )

    def _apply_full(self, new_source: str) -> "PatchOutcome":
        """The whole-program path: always correct, O(program) front end."""
        new_cfg = build_cfg(new_source)
        new_batch, batches = self._full_encode(new_cfg)
        patch = diff_constraints(
            self.constraints, new_batch, self.algebra.identity
        )
        stats = self.delta.apply(patch)
        self.source = new_source
        self._cfg = new_cfg
        self.constraints = new_batch
        self._vars = _node_variables(new_cfg, self._fn_vars)
        self._reachability = None
        self._install_chunks(new_source, new_cfg, batches)
        return PatchOutcome(patch=patch, stats=stats)

    # -- queries ---------------------------------------------------------------

    @property
    def cfg(self) -> ProgramCFG:
        """The current program's CFG, rebuilt on demand after a patch."""
        if self._cfg is None:
            self._cfg = build_cfg(self.source)
            self._vars = _node_variables(self._cfg, self._fn_vars)
        return self._cfg

    def reachability(self) -> Reachability:
        # Reachability precomputes at construction, so a patched solver
        # needs a fresh instance; apply_source invalidates the cache.
        if self._reachability is None:
            self._reachability = Reachability(
                self.solver, through_constructors=True
            )
        return self._reachability

    def node_var(self, node: CFGNode) -> Variable:
        self.cfg  # the variable map is rebuilt alongside the CFG
        assert self._vars is not None
        return self._vars[node.id]

    def check(self) -> CheckResult:
        """All violating program points (mirrors ``AnnotatedChecker.check``)."""
        reach = self.reachability()
        result = CheckResult(
            constraints=len(self.constraints), facts=self.solver.fact_count()
        )
        for node in self.cfg.all_nodes():
            var = self._vars.get(node.id)
            if var is None:
                continue
            for annotation in reach.annotations_of(var, self.pc):
                if self.algebra.is_accepting(annotation):
                    result.violations.append(
                        Violation(node, annotation, None, ())
                    )
                    break
        return result

    def has_violation(self) -> bool:
        reach = self.reachability()
        for node in self.cfg.all_nodes():
            var = self._vars.get(node.id)
            if var is None:
                continue
            for annotation in reach.annotations_of(var, self.pc):
                if self.algebra.is_accepting(annotation):
                    return True
        return False


class PatchOutcome:
    """What :meth:`StableCheck.apply_source` did."""

    def __init__(self, patch: Patch, stats: Any):
        self.patch = patch
        self.stats = stats
