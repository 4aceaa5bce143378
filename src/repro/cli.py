"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``check FILE.c --property NAME`` — model-check a mini-C program
  against a temporal safety property (``simple-privilege``,
  ``full-privilege``, ``file-state``, ``chroot-jail``) with either
  engine;
* ``dataflow FILE.c --track PRIM ...`` — interprocedural "has PRIM been
  called" facts at every exec point;
* ``flow FILE.flow --query SRC DST`` — the Section 7 label-flow
  analysis on a flow-language program;
* ``machine NAME --dot`` — print a gallery machine (or its monoid
  size / DOT rendering);
* ``spec FILE.spec`` — compile a Section 8 automaton specification and
  report its states, symbols, and representative-function count;
* ``patch FILE.c --property NAME`` — differentially re-check an edited
  program through the service's hot patch session (in-process, or a
  running server with ``--connect``);
* ``serve`` — run the analysis service (stdio JSON-lines or TCP);
* ``query`` — send one service request (to a TCP server with
  ``--connect``, or to an in-process engine).

Operational errors — unreadable input files, parse failures — exit
with status 2 and a one-line diagnostic on stderr (no traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Callable

import repro
from repro.cfg import build_cfg
from repro.core.errors import SolverInterrupted
from repro.dfa.gallery import (
    adversarial_machine,
    file_state_machine,
    full_privilege_machine,
    one_bit_machine,
    pair_machine,
    privilege_machine,
)
from repro.dfa.monoid import TransitionMonoid
from repro.dfa.spec import parse_spec
from repro.gcpause import paused
from repro.modelcheck import PROPERTY_FACTORIES, AnnotatedChecker
from repro.mops import MopsChecker

#: Backwards-compatible alias; the canonical registry lives with the
#: properties so the service shares it.
PROPERTIES = PROPERTY_FACTORIES

MACHINES: dict[str, Callable] = {
    "one-bit": one_bit_machine,
    "privilege": privilege_machine,
    "full-privilege": full_privilege_machine,
    "file-state": file_state_machine,
    "pair": pair_machine,
    "adversarial-4": lambda: adversarial_machine(4),
}


#: ``check`` options an engine does not read, as ``(dest, flag)``.
#: ``--engine both`` reads them all: its annotated half does.
_UNREAD_CHECK_FLAGS = {
    "demand": (
        ("traces", "--traces"),
        ("verbose", "-v/--verbose"),
        ("collapse_cycles", "--collapse-cycles"),
    ),
    "mops": (
        ("traces", "--traces"),
        ("verbose", "-v/--verbose"),
        ("collapse_cycles", "--collapse-cycles"),
        ("no_cycle_elim", "--no-cycle-elim"),
        ("budget_steps", "--budget-steps"),
        ("budget_seconds", "--budget-seconds"),
    ),
}


def _cmd_check(args: argparse.Namespace) -> int:
    for dest, flag in _UNREAD_CHECK_FLAGS.get(args.engine, ()):
        if getattr(args, dest) not in (None, False):
            raise CLIError(f"{flag} has no effect with --engine {args.engine}")
    with open(args.file) as handle:
        source = handle.read()
    cfg = build_cfg(source)
    prop = PROPERTIES[args.property]()
    budget = None
    if args.budget_steps is not None or args.budget_seconds is not None:
        from repro.core.budget import Budget

        budget = Budget(
            max_steps=args.budget_steps, max_seconds=args.budget_seconds
        )
    if args.engine in ("annotated", "both"):
        checker = AnnotatedChecker(
            cfg,
            prop,
            collapse_cycles=args.collapse_cycles,
            budget=budget,
            cycle_elim=not args.no_cycle_elim,
            # The flat core over the compiled algebra (§8) unless the
            # run needs witnesses (provenance lives only in the object
            # solver) or substitution environments (parametric
            # properties have no compiled form).
            flat=not args.traces and not prop.parametric_symbols,
            # Verbose runs measure the difference-propagation invariant:
            # at the fixpoint no (fact, edge) pair composes twice.
            track_redundant=args.verbose,
        )
        result = checker.check(traces=args.traces)
        print(f"[annotated] {'VIOLATION' if result.has_violation else 'clean'} "
              f"({len(result.violations)} finding(s), "
              f"{result.facts} solved-form facts)")
        if args.verbose:
            for field, value in checker.solver.stats.as_dict().items():
                print(f"  {field:22} {value}")
            redundant = checker.solver.stats.redundant_compositions
            status = "OK" if redundant == 0 else "VIOLATED"
            print(f"  fixpoint invariant: redundant_compositions == 0 [{status}]")
        shown = 0
        for violation in result.violations:
            if shown >= args.max_findings:
                remaining = len(result.violations) - shown
                print(f"  ... and {remaining} more")
                break
            print(f"  {violation.describe()}")
            if args.traces:
                for step in violation.trace:
                    print(f"      {step.describe()}")
            shown += 1
    if args.engine == "demand":
        from repro.modelcheck import DemandChecker

        checker = DemandChecker(
            cfg, prop, cycle_elim=not args.no_cycle_elim, budget=budget
        )
        nodes = checker.violation_nodes()
        print(f"[demand]    {'VIOLATION' if nodes else 'clean'} "
              f"({len(nodes)} error node(s))")
        for node in nodes[: args.max_findings]:
            print(f"  error reachable at {node.describe()}")
        return 1 if nodes else 0
    if args.engine in ("mops", "both"):
        result = MopsChecker(cfg, prop).check()
        print(f"[mops]      {'VIOLATION' if result.has_violation else 'clean'} "
              f"({len(result.error_nodes)} error node(s))")
        for node in result.error_nodes[: args.max_findings]:
            print(f"  error reachable at {node.describe()}")
    return 1 if result.has_violation else 0


def _cmd_dataflow(args: argparse.Namespace) -> int:
    from repro.dataflow import AnnotatedBitVectorAnalysis
    from repro.dataflow.problems import call_tracking_problem

    with open(args.file) as handle:
        source = handle.read()
    cfg = build_cfg(source)
    problem = call_tracking_problem(cfg, args.track)
    analysis = AnnotatedBitVectorAnalysis(cfg, problem)
    print(f"facts: {', '.join(problem.facts)}")
    for node in cfg.all_nodes():
        if node.call is None:
            continue
        held = analysis.may_hold(node)
        if held:
            names = ", ".join(problem.facts[i] for i in sorted(held))
            print(f"  {node.describe():40} may-hold: {names}")
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from repro.flow import FlowAnalysis

    with open(args.file) as handle:
        source = handle.read()
    analysis = FlowAnalysis(source, pn=args.pn)
    print(f"labels: {', '.join(sorted(analysis.labels))}")
    print(f"bracket machine: {analysis.machine_states} states, "
          f"monoid {analysis.monoid_size}")
    if args.query:
        src, dst = args.query
        verdict = analysis.flows(src, dst)
        print(f"{src} -> {dst}: {verdict}")
        return 0 if verdict else 1
    for src, dst in sorted(analysis.flow_pairs()):
        print(f"  {src} -> {dst}")
    return 0


def _cmd_machine(args: argparse.Namespace) -> int:
    machine = MACHINES[args.name]()
    monoid = TransitionMonoid(machine, max_size=100_000)
    print(f"machine {args.name}: {machine.n_states} states, "
          f"{len(machine.alphabet)} symbols, |F_M| = {monoid.size()}")
    if args.dot:
        from repro.render import dfa_to_dot

        print(dfa_to_dot(machine, title=args.name))
    return 0


def _cmd_specialize(args: argparse.Namespace) -> int:
    import json

    with open(args.file) as handle:
        spec = parse_spec(handle.read())
    machine = spec.to_dfa()
    monoid = TransitionMonoid(machine, max_size=args.max_size)
    elements, table = monoid.composition_table()
    payload = {
        "states": spec.states,
        "start": spec.start,
        "accepting": sorted(spec.accepting),
        "alphabet": sorted(spec.symbols),
        "functions": [list(fn.mapping) for fn in elements],
        "accepting_functions": [
            i for i, fn in enumerate(elements) if monoid.is_accepting(fn)
        ],
        "compose": table,
    }
    text = json.dumps(payload, indent=None if args.compact else 2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"specialized {len(elements)} representative functions "
              f"-> {args.output}")
    else:
        print(text)
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        spec = parse_spec(handle.read())
    machine = spec.to_dfa()
    monoid = TransitionMonoid(machine, max_size=200_000)
    print(f"states: {', '.join(spec.states)} (start {spec.start}, "
          f"accept {sorted(spec.accepting)})")
    print(f"symbols: {', '.join(sorted(spec.symbols))}")
    if spec.parametric_symbols:
        print(f"parametric: {', '.join(sorted(spec.parametric_symbols))}")
    print(f"|F_M| = {monoid.size()}")
    if args.dot:
        from repro.render import dfa_to_dot

        names = {i: name for i, name in enumerate(spec.states)}
        print(dfa_to_dot(machine, state_names=names, title="spec"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service import AnalysisEngine, AnalysisServer

    engine = AnalysisEngine(
        cache_size=args.cache_size,
        snapshot_dir=args.snapshot_dir,
        journal_dir=args.journal_dir,
        journal_fsync_every=args.journal_fsync_batch,
        journal_compact_every=args.journal_compact_every,
    )
    if engine.recoveries:
        print(
            f"repro service recovered {engine.recoveries} hot session(s) "
            "from the journal",
            file=sys.stderr,
        )
    if args.process_pool:
        return _serve_process_pool(args, engine)
    server = AnalysisServer(
        engine,
        workers=args.workers,
        timeout=args.timeout,
        max_queue=args.max_queue,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )

    def _on_signal(signum: int, _frame: object) -> None:
        # Only flag shutdown here; the main thread runs the drain so the
        # handler stays async-signal-safe.
        print(
            f"repro service caught {signal.Signals(signum).name}; draining",
            file=sys.stderr,
        )
        server.signal_shutdown()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    if args.tcp:
        host, _sep, port_text = args.tcp.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            raise CLIError(f"invalid --tcp address {args.tcp!r} (want HOST:PORT)")
        bound_host, bound_port = server.start_tcp(host, port)
        print(f"repro service listening on {bound_host}:{bound_port}", file=sys.stderr)
    else:
        # stdio serving runs on a helper thread so the main thread can
        # still observe SIGTERM/SIGINT and run the graceful drain.
        threading.Thread(target=server.serve_stdio, daemon=True).start()
    try:
        server.wait()
    except KeyboardInterrupt:  # pragma: no cover - handler normally wins
        pass
    outcome = server.drain(args.drain_seconds)
    print(
        f"repro service drained: {outcome['drained']} request(s) finished, "
        f"{outcome['cancelled']} cancelled, "
        f"{outcome['checkpointed']} session(s) checkpointed",
        file=sys.stderr,
    )
    return 0


def _serve_process_pool(args: argparse.Namespace, engine) -> int:
    """``serve --process-pool``: the selectors front door + worker pool."""
    import signal

    from repro.modelcheck import PROPERTY_FACTORIES
    from repro.service.frontdoor import AsyncAnalysisServer

    if not args.tcp:
        raise CLIError("--process-pool requires --tcp HOST:PORT")
    if args.preload == "all":
        preload = sorted(PROPERTY_FACTORIES)
    else:
        preload = [name for name in args.preload.split(",") if name]
    host, _sep, port_text = args.tcp.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise CLIError(f"invalid --tcp address {args.tcp!r} (want HOST:PORT)")
    server = AsyncAnalysisServer(
        engine,
        workers=args.workers,
        preload=preload,
        timeout=args.timeout,
        max_queue=args.max_queue,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )

    def _on_signal(signum: int, _frame: object) -> None:
        print(
            f"repro service caught {signal.Signals(signum).name}; draining",
            file=sys.stderr,
        )
        server.signal_shutdown()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    bound_host, bound_port = server.start(host, port)
    print(
        f"repro service listening on {bound_host}:{bound_port} "
        f"({args.workers} process worker(s), "
        f"{len(preload)} preloaded propert{'y' if len(preload) == 1 else 'ies'})",
        file=sys.stderr,
    )
    try:
        server.wait()
    except KeyboardInterrupt:  # pragma: no cover - handler normally wins
        pass
    server.close(drain_timeout=args.drain_seconds)
    print("repro service stopped", file=sys.stderr)
    return 0


def _cmd_patch(args: argparse.Namespace) -> int:
    import time as _time

    with open(args.file) as handle:
        program = handle.read()
    params: dict = {"program": program, "property": args.property}
    if args.base:
        params["base"] = args.base
    if args.deadline_seconds is not None:
        params["deadline"] = _time.time() + args.deadline_seconds
    if args.connect:
        from repro.service import ServiceClient, ServiceError

        host, _sep, port_text = args.connect.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            raise CLIError(f"invalid --connect address {args.connect!r}")
        try:
            with ServiceClient(host, port, retries=args.retries) as client:
                # client.patch attaches the idempotency key, so the
                # CLI's transport retries are safe for this
                # state-advancing op too.
                result = client.patch(key=args.key, **params)
        except ServiceError as exc:
            raise CLIError(f"service error {exc.code}: {exc.message}")
        except OSError as exc:
            raise CLIError(f"cannot reach {host}:{port}: {exc}")
    else:
        from repro.service import AnalysisEngine, EngineError

        try:
            result = AnalysisEngine().dispatch("patch", params)
        except EngineError as exc:
            raise CLIError(f"{exc.code}: {exc.message}")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 1 if result.get("has_violation") else 0


def _cmd_query(args: argparse.Namespace) -> int:
    params: dict = {}
    if args.op in ("check", "dataflow", "flow"):
        if not args.file:
            raise CLIError(f"query {args.op} requires a program FILE")
        with open(args.file) as handle:
            params["program"] = handle.read()
    if args.op == "check":
        if not args.property:
            raise CLIError("query check requires --property")
        params["property"] = args.property
        params["traces"] = args.traces
    elif args.op == "dataflow":
        if not args.track:
            raise CLIError("query dataflow requires --track")
        params["track"] = args.track
    elif args.op == "flow":
        if args.flow_query:
            params["query"] = list(args.flow_query)
        if args.assume:
            for pair in args.assume:
                if ":" not in pair:
                    raise CLIError(
                        f"invalid --assume value {pair!r} (want SRC:DST)"
                    )
            params["assume"] = [pair.split(":", 1) for pair in args.assume]
        params["pn"] = args.pn
    if args.deadline_seconds is not None and args.op in (
        "check",
        "dataflow",
        "flow",
    ):
        import time as _time

        params["deadline"] = _time.time() + args.deadline_seconds

    if args.connect:
        from repro.service import ServiceClient, ServiceError

        host, _sep, port_text = args.connect.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            raise CLIError(f"invalid --connect address {args.connect!r}")
        try:
            with ServiceClient(host, port, retries=args.retries) as client:
                result = client.request(args.op, **params)
        except ServiceError as exc:
            raise CLIError(f"service error {exc.code}: {exc.message}")
        except OSError as exc:
            raise CLIError(f"cannot reach {host}:{port}: {exc}")
    else:
        from repro.service import AnalysisEngine, EngineError

        try:
            result = AnalysisEngine().dispatch(args.op, params)
        except EngineError as exc:
            raise CLIError(f"{exc.code}: {exc.message}")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regularly annotated set constraints (PLDI 2007)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="model-check a mini-C program")
    check.add_argument("file")
    check.add_argument("--property", choices=sorted(PROPERTIES), required=True)
    check.add_argument(
        "--engine",
        choices=["annotated", "mops", "demand", "both"],
        default="annotated",
    )
    check.add_argument(
        "--traces",
        action="store_true",
        help="print witnesses (solves on the object core, which records "
        "provenance; without it the flat core over the compiled algebra "
        "runs)",
    )
    check.add_argument("--collapse-cycles", action="store_true")
    check.add_argument(
        "--no-cycle-elim",
        action="store_true",
        help="disable online cycle elimination (identity-annotated SCC merging)",
    )
    check.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print solver statistics (facts, merges, find calls, ...)",
    )
    check.add_argument("--max-findings", type=int, default=10)
    check.add_argument(
        "--budget-steps",
        type=int,
        metavar="N",
        help="abort the solve after N worklist steps (exit status 3)",
    )
    check.add_argument(
        "--budget-seconds",
        type=float,
        metavar="S",
        help="abort the solve after S wall-clock seconds (exit status 3)",
    )
    check.set_defaults(handler=_cmd_check)

    dataflow = commands.add_parser("dataflow", help="interprocedural gen/kill")
    dataflow.add_argument("file")
    dataflow.add_argument("--track", nargs="+", required=True)
    dataflow.set_defaults(handler=_cmd_dataflow)

    flow = commands.add_parser("flow", help="Section 7 label-flow analysis")
    flow.add_argument("file")
    flow.add_argument("--query", nargs=2, metavar=("SRC", "DST"))
    flow.add_argument("--pn", action="store_true", help="partially matched paths")
    flow.set_defaults(handler=_cmd_flow)

    machine = commands.add_parser("machine", help="inspect a gallery machine")
    machine.add_argument("name", choices=sorted(MACHINES))
    machine.add_argument("--dot", action="store_true")
    machine.set_defaults(handler=_cmd_machine)

    spec = commands.add_parser("spec", help="compile a §8 automaton spec")
    spec.add_argument("file")
    spec.add_argument("--dot", action="store_true")
    spec.set_defaults(handler=_cmd_spec)

    specialize = commands.add_parser(
        "specialize",
        help="emit the §8 specializer output: F_M and its ∘ lookup table",
    )
    specialize.add_argument("file")
    specialize.add_argument("-o", "--output")
    specialize.add_argument("--compact", action="store_true")
    specialize.add_argument("--max-size", type=int, default=100_000)
    specialize.set_defaults(handler=_cmd_specialize)

    serve = commands.add_parser(
        "serve", help="run the analysis service (stdio JSON-lines or TCP)"
    )
    serve.add_argument(
        "--tcp", metavar="HOST:PORT", help="listen on TCP instead of stdio"
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--process-pool",
        action="store_true",
        help="serve through the selectors front door with a pool of "
        "worker *processes* (true CPU parallelism; requires --tcp); "
        "patches stay in this process (single journal writer)",
    )
    serve.add_argument(
        "--preload",
        metavar="PROPS",
        default="",
        help="comma-separated property names every pool worker compiles "
        "at startup ('all' = every known property)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, help="per-request timeout (seconds)"
    )
    serve.add_argument("--cache-size", type=int, default=64)
    serve.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="analysis requests queued beyond the workers before shedding",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive failures before a request fingerprint is refused",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds a tripped fingerprint stays refused before a probe",
    )
    serve.add_argument(
        "--snapshot-dir", help="persist/reload solved systems in this directory"
    )
    serve.add_argument(
        "--journal-dir",
        help="crash-durable write-ahead journal for hot patch sessions; "
        "a restarted server replays it and recovers the sessions warm",
    )
    serve.add_argument(
        "--journal-fsync-batch",
        type=int,
        default=1,
        metavar="N",
        help="fsync the journal every N appends (group commit; 1 = "
        "every record durable before its patch applies)",
    )
    serve.add_argument(
        "--journal-compact-every",
        type=int,
        default=256,
        metavar="N",
        help="snapshot-compact a session's journal every N records",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        metavar="S",
        help="on SIGTERM/SIGINT, wait up to S seconds for in-flight "
        "requests before cancelling them and checkpointing sessions",
    )
    serve.set_defaults(handler=_cmd_serve)

    patch = commands.add_parser(
        "patch",
        help="differentially re-check an edited program via the service",
    )
    patch.add_argument("file")
    patch.add_argument("--property", choices=sorted(PROPERTIES), required=True)
    patch.add_argument(
        "--base",
        help="expected base version token (the 'version' of a prior response); "
        "a mismatch falls back to a cold solve",
    )
    patch.add_argument(
        "--connect", metavar="HOST:PORT", help="send to a running TCP service"
    )
    patch.add_argument("--retries", type=int, default=0)
    patch.add_argument(
        "--key",
        help="explicit idempotency key (defaults to a generated one); "
        "a retried, already-applied patch returns the recorded result",
    )
    patch.add_argument(
        "--deadline-seconds",
        type=float,
        metavar="S",
        help="absolute deadline S seconds from now, propagated end to "
        "end (expired work is refused with deadline-exceeded)",
    )
    patch.set_defaults(handler=_cmd_patch)

    query = commands.add_parser(
        "query", help="send one analysis-service request and print the result"
    )
    query.add_argument("op", choices=["check", "dataflow", "flow", "stats", "ping"])
    query.add_argument("file", nargs="?", help="program file (check/dataflow/flow)")
    query.add_argument(
        "--connect", metavar="HOST:PORT", help="query a running TCP server"
    )
    query.add_argument("--property", choices=sorted(PROPERTIES))
    query.add_argument("--traces", action="store_true")
    query.add_argument("--track", nargs="+")
    query.add_argument("--flow-query", nargs=2, metavar=("SRC", "DST"))
    query.add_argument(
        "--assume",
        nargs="+",
        metavar="SRC:DST",
        help="speculative label flows for a what-if flow query",
    )
    query.add_argument("--pn", action="store_true")
    query.add_argument(
        "--retries",
        type=int,
        default=2,
        help="reconnect attempts on connection failure (--connect only)",
    )
    query.add_argument(
        "--deadline-seconds",
        type=float,
        metavar="S",
        help="absolute deadline S seconds from now (analysis ops only)",
    )
    query.set_defaults(handler=_cmd_query)

    return parser


class CLIError(Exception):
    """An operational CLI failure: reported on one line, exit status 2."""


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A one-shot command's heap is freed by reference counting, so the
    # cyclic collector only rescans it (see repro.gcpause).  The server
    # lives on between requests: it pauses per request instead.
    pause = contextlib.nullcontext() if args.command == "serve" else paused()
    try:
        with pause:
            return args.handler(args)
    except CLIError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except SolverInterrupted as exc:
        # Budget exhaustion / cancellation is a governed outcome, not a
        # crash: distinct exit status so drivers can tell it apart.
        print(
            f"repro: interrupted: {exc} (progress: {exc.progress})",
            file=sys.stderr,
        )
        return 3
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" {target!r}" if target else ""
        print(f"repro: error: cannot read{where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # ParseError / LexError / FlowSyntaxError / SpecSyntaxError all
        # derive from ValueError: a one-line diagnostic, not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
