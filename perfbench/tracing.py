"""Layer spans around the program's public entry points, and their analysis.

The traced run installs :func:`install` in the analysed process (see
``trace_boot.py``); nothing in ``src/`` knows about it.  Each wrapper
records one span per call: id, name, start, end, parent span,
operation id and thread, plus a few counts read from the call's
arguments or result.  Spans stay in memory and are written as JSON
when the process ends.

Names are patched where their callers look them up.  ``build_cfg``
imports ``repro.cfg.parser.parse_program`` at call time and calls
``build_program_cfg`` from its own module, so wrapping those two (and
``tokenize`` where the parser binds it) times every front-end pass,
whichever module called ``build_cfg``.  Methods are patched on their
class, which every importer shares.

Operations: a ``repro check`` process is one operation.  In a server,
``AnalysisServer.process_line`` opens one per request; the pool
thread that runs ``AnalysisEngine.dispatch`` joins it through the
request's ``params`` dict, which ``protocol.decode_request`` builds
and ``dispatch`` receives.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.ops = itertools.count(1)
        #: id(request params) -> (operation id, root span id)
        self.pending: dict[int, tuple[int, int]] = {}

    def stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def dump(self, path: Path, window: tuple[float, float]) -> None:
        path.write_text(json.dumps({"window": window, "spans": self.spans}))


def _wrap(
    rec: Recorder,
    owner: Any,
    attr: str,
    name: str,
    measure: Callable[..., dict | None] | None = None,
    prepare: Callable[..., Any] | None = None,
    enter: Callable[..., Any] | None = None,
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``prepare(args)`` runs before the call and its value is handed to
    ``measure(args, result, prepared)``, which returns the span's
    counts.  ``enter(args)`` may return ``(op, parent)`` to attach the
    span to an operation begun on another thread.
    """
    original = getattr(owner, attr)
    local = rec.local
    spans = rec.spans
    ids = rec.ids

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = rec.stack()
        saved = None
        if enter is not None:
            joined = enter(args)
            if joined is not None:
                saved = (getattr(local, "op", 0), getattr(local, "parent", None))
                local.op, local.parent = joined
        parent = stack[-1] if stack else getattr(local, "parent", None)
        sid = next(ids)
        prepared = prepare(args) if prepare is not None else None
        stack.append(sid)
        start = perf_counter()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            attrs = None
            if measure is not None:
                try:
                    attrs = measure(args, result, prepared)
                except Exception:  # a count we could not read is just absent
                    attrs = None
            spans.append(
                (sid, name, start, end, parent, getattr(local, "op", 0),
                 threading.get_ident(), attrs)
            )
            if saved is not None:
                local.op, local.parent = saved

    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    setattr(owner, attr, wrapper)


def _solver_counts(solver: Any) -> tuple[int, int, int]:
    stats = solver.stats
    return (stats.compositions, stats.find_calls, stats.vars_merged)


def _solver_delta(args: tuple, _result: Any, before: tuple[int, int, int]) -> dict:
    after = _solver_counts(args[0])
    return {
        "compositions": after[0] - before[0],
        "find_calls": after[1] - before[1],
        "vars_merged": after[2] - before[2],
    }


def _check_result(_args: tuple, result: Any, _prepared: Any) -> dict:
    return {
        "violations": len(result.violations),
        "facts": result.facts,
        "constraints": result.constraints,
    }


def _monoid_size(args: tuple, _result: Any, _prepared: Any) -> dict | None:
    monoid = args[0]
    if getattr(monoid, "_elements", None) is None:
        return None  # lazy monoid: counting would enumerate it
    return {"functions": monoid.size()}


#: Layers :func:`install` can wrap; the service layers exist only in a server.
LAYERS = (
    "cfg", "annotations", "modelcheck", "solver", "incremental",
    "queries", "persist", "journal", "engine", "transport",
)
SERVICE_LAYERS = {"incremental", "persist", "journal", "engine", "transport"}


def install(rec: Recorder, layers: set[str]) -> None:
    """Wrap the public entry points of each layer in ``layers``."""
    if "cfg" in layers:
        lexer = importlib.import_module("repro.cfg.lexer")
        parser = importlib.import_module("repro.cfg.parser")
        builder = importlib.import_module("repro.cfg.builder")
        tokenize = lexer.tokenize
        # The parser materialises the token stream with list(); doing it
        # here keeps the whole tokenizer inside the span.
        parser.tokenize = lambda source: list(tokenize(source))
        _wrap(rec, parser, "tokenize", "cfg.tokenize",
              measure=lambda a, r, p: {"tokens": len(r)})
        _wrap(rec, parser, "parse_program", "cfg.parse",
              measure=lambda a, r, p: {"chars": len(a[0])})
        _wrap(rec, builder, "build_program_cfg", "cfg.build",
              measure=lambda a, r, p: {"nodes": len(r.nodes)})
    if "annotations" in layers:
        monoid = importlib.import_module("repro.dfa.monoid")
        annotations = importlib.import_module("repro.core.annotations")
        _wrap(rec, monoid.TransitionMonoid, "__init__", "annotations.build",
              measure=_monoid_size)
        for cls in ("MonoidAlgebra", "CompiledMonoidAlgebra", "CompiledGenKillAlgebra"):
            _wrap(rec, getattr(annotations, cls), "__init__", "annotations.build")
    if "modelcheck" in layers:
        checker = importlib.import_module("repro.modelcheck.checker")
        bitvector = importlib.import_module("repro.dataflow.bitvector")
        _wrap(rec, checker.AnnotatedChecker, "__init__", "modelcheck.encode")
        _wrap(rec, bitvector.AnnotatedBitVectorAnalysis, "__init__", "modelcheck.encode")
        if "incremental" in layers:
            diff = importlib.import_module("repro.incremental.diff")
            _wrap(rec, diff.StableCheck, "__init__", "modelcheck.encode")
    if "solver" in layers:
        solver = importlib.import_module("repro.core.solver")
        flatcore = importlib.import_module("repro.core.flatcore")
        for cls in (solver.Solver, flatcore.FlatSolver):
            for method in ("add_many", "resume"):
                _wrap(rec, cls, method, "solver.drain",
                      prepare=lambda a: _solver_counts(a[0]), measure=_solver_delta)
    if "incremental" in layers:
        diff = importlib.import_module("repro.incremental.diff")
        # PatchStats has no cone size; the solver's counter is cumulative
        _wrap(rec, diff.StableCheck, "apply_source", "incremental.apply",
              prepare=lambda a: a[0].solver.stats.cone_size,
              measure=lambda a, r, p: dict(
                  r.stats.as_dict(), cone_size=a[0].solver.stats.cone_size - p))
    if "queries" in layers:
        queries = importlib.import_module("repro.core.queries")
        checker = importlib.import_module("repro.modelcheck.checker")
        bitvector = importlib.import_module("repro.dataflow.bitvector")
        _wrap(rec, queries.Reachability, "__init__", "queries.reach")
        _wrap(rec, checker.AnnotatedChecker, "check", "queries.scan",
              measure=_check_result)
        _wrap(rec, bitvector.AnnotatedBitVectorAnalysis, "may_hold", "queries.scan")
        if "incremental" in layers:
            diff = importlib.import_module("repro.incremental.diff")
            _wrap(rec, diff.StableCheck, "check", "queries.scan", measure=_check_result)
    if "persist" in layers:
        engine = importlib.import_module("repro.service.engine")
        _wrap(rec, engine, "dump_solver", "persist.dump")
        _wrap(rec, engine, "write_snapshot", "persist.dump",
              measure=lambda a, r, p: {"bytes": len(a[1])})
        _wrap(rec, engine, "read_snapshot", "persist.load",
              measure=lambda a, r, p: {"bytes": len(r)})
        _wrap(rec, engine, "load_solver", "persist.load")
    if "journal" in layers:
        journal = importlib.import_module("repro.service.journal")
        _wrap(rec, journal.SessionJournal, "append", "journal.append",
              measure=lambda a, r, p: {"appends": 1})
    if "transport" in layers:
        server = importlib.import_module("repro.service.server")
        protocol = importlib.import_module("repro.service.protocol")
        _install_transport(rec, server, protocol)
    if "engine" in layers:
        engine = importlib.import_module("repro.service.engine")
        _wrap(rec, engine.AnalysisEngine, "dispatch", "engine.dispatch",
              enter=lambda a: rec.pending.pop(id(a[2]), None),
              measure=lambda a, r, p: {"request": a[1]})


def _install_transport(rec: Recorder, server: Any, protocol: Any) -> None:
    local = rec.local
    decode_request = protocol.decode_request

    def decode(line: str) -> Any:
        request = decode_request(line)
        stack = rec.stack()
        if stack:
            rec.pending[id(request.params)] = (local.op, stack[-1])
        return request

    protocol.decode_request = decode

    def begin_op(args: tuple) -> tuple[int, None]:
        return (next(rec.ops), None)

    _wrap(rec, server.AnalysisServer, "process_line", "transport.server",
          enter=begin_op, measure=lambda a, r, p: {"response_bytes": len(r)})


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    own = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent in own:
            own[parent] -= span[3] - span[2]
    return own


def summarise(spans: list[list], ops: set[int] | None = None) -> dict:
    """Per-layer self seconds, counts and covered seconds of ``ops``.

    ``ops`` selects operations by id (None: all).  Covered seconds are
    the durations of each operation's top-level spans, which contain
    all their descendants and never overlap on one thread.
    """
    chosen = [s for s in spans if ops is None or s[5] in ops]
    own = self_times(chosen)
    ids = {s[0] for s in chosen}
    seconds: dict[str, float] = {}
    counts: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered = 0.0
    for span in chosen:
        name = span[1]
        seconds[name] = seconds.get(name, 0.0) + own[span[0]]
        calls[name] = calls.get(name, 0) + 1
        if span[4] not in ids:
            covered += span[3] - span[2]
        for key, value in (span[7] or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    return {"seconds": seconds, "counts": counts, "calls": calls, "covered": covered}


def merge(parts: list[dict]) -> dict:
    total: dict = {"seconds": {}, "counts": {}, "calls": {}, "covered": 0.0}
    for part in parts:
        for field in ("seconds", "counts", "calls"):
            for key, value in part[field].items():
                total[field][key] = total[field].get(key, 0) + value
        total["covered"] += part["covered"]
    return total


def server_ops(
    spans: list[list], start: float, end: float, requests: set[str]
) -> set[int]:
    """Operations whose request began in ``[start, end]`` and was one of
    ``requests`` (``check``, ``patch``, ...)."""
    roots = {s[5]: s for s in spans if s[1] == "transport.server"}
    kinds = {
        s[5]: (s[7] or {}).get("request")
        for s in spans
        if s[1] == "engine.dispatch"
    }
    return {
        op for op, root in roots.items()
        if start <= root[2] <= end and kinds.get(op) in requests
    }
