"""The three workloads, driven through ``repro check`` and ``repro serve``.

``check_batch``
    One fresh ``python -m repro check FILE --property full-privilege``
    process per package, one at a time, over a seeded variant of Table
    1's four packages (4k, 6k, 23k and 24k lines).  This is the paper's
    own measurement and the only workload where front end, encode,
    drain and query all run whole-program with no cache; every service
    layer is bypassed.
``edit_session``
    One editor on one connection to ``repro serve --journal-dir``
    streams single-line edits of a 3k-line package, and their undos, as
    ``patch`` requests, each naming the previous version as ``base``.
    Every operation mutates the solved form and is journaled, and most
    of its time is front-end and query work around a small solver
    repair.
``serve_mix``
    Two clients (one per CPU of the reference host) on two connections
    to ``repro serve --workers 2 --cache-size C --snapshot-dir`` send a
    Zipf-popular mix of ``check`` (object core, provenance on) and
    ``dataflow`` (flat core) requests over a pool larger than ``C``.
    Most answers come from the memory cache or a snapshot, so
    transport, engine caches and persist dominate.  Only this workload
    runs the flat core.

Each workload repeats whole rounds of identical work until
``--seconds`` is used up (a round is started only if half of one still
fits), so a round's counts repeat exactly.  Set-up samples and
machine-speed samples (:mod:`speed`) are taken between operations all
through the run, and the clock is paused while they run.  Verdicts are
checked against the independent references in :mod:`refs` after the
timed loop.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs
import procs
import refs
import speed
import tracing
from inputs import CHECK_PROPERTY, SERVICE_PROPERTY, TRACK, Sizes
from repro.cfg import build_cfg
from repro.cfg.lexer import tokenize
from repro.service.client import ServiceError

#: ``--max-findings`` for ``repro check``: the CLI prints only 10
#: violations by default, and verdicts are compared node for node.
ALL_FINDINGS = "1000000"
CHECK_TIMEOUT = 150.0
#: serve_mix takes a set-up sample before every this many steps
SETUP_EVERY_STEPS = 10
#: measured seconds between two machine-speed samples
SPEED_EVERY_S = 1.0


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    sizes: Sizes
    trace: bool
    env: dict[str, str] = field(init=False)
    machine: speed.Speed = field(init=False, default_factory=speed.Speed)

    def __post_init__(self) -> None:
        self.env = procs.repro_env(self.root)

    def scratch(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))


@dataclass
class Op:
    """One timed operation and what it must be checked against."""

    seconds: float
    lines: int
    chars: int
    verify: Callable[[], str | None]  # error message, or None when correct
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Phase:
    """The operations of one measured phase, and what it ran on."""

    ops: list[Op]
    elapsed: float
    rounds: int
    per_round: int
    peak_rss_mb: float
    stats: dict[str, float] = field(default_factory=dict)
    trace: dict | None = None


@dataclass
class Result:
    setup: list[float]
    measured: Phase
    baseline: Phase | None = None  # the untraced phase of a traced run
    #: setup operations whose verdicts were checked (session openings)
    setup_checked: int = 0
    setup_failures: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)


class Clock:
    """Measured time: wall time minus the set-up and speed samples taken
    meanwhile."""

    def __init__(self, machine: speed.Speed) -> None:
        self.start = time.perf_counter()
        self.paused = 0.0
        self.machine = machine
        self.next_speed = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def sample(self, setup: Callable[[], float], samples: list[float]) -> None:
        """Take one set-up sample with the clock stopped."""
        begun = time.perf_counter()
        try:
            samples.append(setup())
        finally:
            self.paused += time.perf_counter() - begun

    def speed_sample(self) -> None:
        """Time the speed kernel, with the clock stopped, once for each
        ``SPEED_EVERY_S`` of measured time since the last call (once on
        the first call), so that a run takes the same number of samples
        whether its operations are long or short."""
        begun = time.perf_counter()
        measured = self.elapsed()
        try:
            while measured >= self.next_speed:
                self.machine.sample()
                self.next_speed += SPEED_EVERY_S
        finally:
            self.paused += time.perf_counter() - begun


def another_round(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether half a round, at the mean round time so far, still fits."""
    return elapsed + 0.5 * elapsed / rounds < seconds


def run_rounds(
    seconds: float, one_round: Callable[[int], None], clock: Clock
) -> tuple[int, float]:
    """Run whole rounds while :func:`another_round` says so."""
    rounds = 0
    while True:
        one_round(rounds)
        rounds += 1
        elapsed = clock.elapsed()
        if not another_round(elapsed, rounds, seconds):
            return rounds, elapsed


def prepare(source: str, reference: Callable[[Any], Any]) -> tuple[Any, dict[str, int]]:
    """An input's verdict reference (computed from its CFG) and its
    deterministic size counts, from one front-end pass outside the
    timed loop."""
    cfg = build_cfg(source)
    counts = {
        "lines": source.count("\n"),
        "tokens": sum(1 for _ in tokenize(source)),
        "cfg_nodes": len(cfg.nodes),
    }
    return reference(cfg), counts


def _mismatch(label: str, got: Any, want: Any) -> str | None:
    if got == want:
        return None
    if isinstance(got, Counter) and isinstance(want, Counter):
        extra = sum((got - want).values())
        missing = sum((want - got).values())
        return f"{label}: {extra} node(s) not in the reference, {missing} missing"
    return f"{label}: verdict differs from the reference"


# -- check_batch ----------------------------------------------------------------


def check_batch(ctx: Context) -> Result:
    packages = inputs.check_batch_round(ctx.seed, ctx.sizes)
    files = []
    for index, package in enumerate(packages):
        path = ctx.work / f"check-{index}.c"
        path.write_text(package.source)
        files.append(path)
    references, counts = zip(*(
        prepare(p.source, lambda cfg: refs.check_reference(cfg, CHECK_PROPERTY))
        for p in packages
    ))

    def version() -> float:
        """Set-up: a fresh interpreter until the CLI is ready."""
        done = procs.run_once(
            procs.repro_argv(["--version"], None), ctx.env, ctx.root, CHECK_TIMEOUT
        )
        if done.returncode != 0:
            raise RuntimeError(f"repro --version failed: {done.stderr.strip()}")
        return done.seconds

    setup: list[float] = []

    def phase(spans_dir: Path | None, seconds: float) -> Phase:
        ops: list[Op] = []
        peak = [0.0]
        span_files: list[Path] = []
        clock = Clock(ctx.machine)

        def one_round(round_index: int) -> None:
            for index, (package, path) in enumerate(zip(packages, files)):
                clock.speed_sample()
                clock.sample(version, setup)  # one set-up sample per package
                spans = None
                if spans_dir is not None:
                    spans = spans_dir / f"r{round_index}-{index}.json"
                    span_files.append(spans)
                argv = procs.repro_argv(
                    ["check", str(path), "--property", CHECK_PROPERTY,
                     "--max-findings", ALL_FINDINGS],
                    spans,
                )
                done = procs.run_once(argv, ctx.env, ctx.root, CHECK_TIMEOUT)
                peak[0] = max(peak[0], done.peak_rss_mb)
                ops.append(Op(
                    done.seconds,
                    package.lines,
                    len(package.source),
                    _check_verifier(package.name, done, references[index]),
                    {**counts[index], **refs.cli_counts(done.stdout)},
                ))

        rounds, elapsed = run_rounds(seconds, one_round, clock)
        result = Phase(ops, elapsed, rounds, len(packages), peak[0])
        if spans_dir is not None:
            result.trace = _process_traces(span_files)
        return result

    if not ctx.trace:
        return Result(setup, phase(None, ctx.seconds))
    baseline = phase(None, ctx.seconds / 2)
    spans_dir = ctx.scratch("spans-")
    return Result(setup, phase(spans_dir, ctx.seconds / 2), baseline)


def _check_verifier(name: str, done: procs.Finished, reference: Counter):
    def verify() -> str | None:
        nodes = refs.cli_nodes(done.stdout)
        if nodes is None:
            return (f"{name}: no complete verdict (exit {done.returncode}): "
                    + done.stderr.strip()[-300:])
        if done.returncode != (1 if reference else 0):
            return f"{name}: exit status {done.returncode} disagrees with the reference"
        return _mismatch(name, nodes, reference)

    return verify


def _process_traces(span_files: list[Path]) -> dict:
    """One ``repro check`` process per operation: its window is the op."""
    parts = []
    window = 0.0
    for path in span_files:
        data = json.loads(path.read_text())
        parts.append(tracing.summarise(data["spans"]))
        start, end = data["window"]
        window += end - start
    summary = tracing.merge(parts)
    summary["window"] = window
    return summary


# -- service workloads -------------------------------------------------------------


def _stats(server: procs.Server) -> dict:
    with server.client() as client:
        return client.request("stats")


def _stat_delta(before: dict, after: dict) -> dict[str, float]:
    counters = {
        name: after["counters"].get(name, 0) - before["counters"].get(name, 0)
        for name in ("cache.solve.hits", "cache.solve.misses", "cache.snapshot.warm")
    }
    # the server's own time per request (the first ``stats`` request is
    # included, a few hundred microseconds)
    timer_after = after["timers"].get("request", {"seconds": 0.0})
    timer_before = before["timers"].get("request", {"seconds": 0.0})
    counters["request_seconds"] = timer_after["seconds"] - timer_before["seconds"]
    # cache-miss builds: parse, snapshot load or encode and drain
    solve_after = after["timers"].get("solve", {"seconds": 0.0})
    solve_before = before["timers"].get("solve", {"seconds": 0.0})
    counters["solve_seconds"] = solve_after["seconds"] - solve_before["seconds"]
    return counters


def _serve_phase(
    ctx: Context,
    server_args: list[str],
    requests: set[str],
    traced: bool,
    seconds: float,
    opening: Callable[[procs.Server], Any],
    measure: Callable[[procs.Server, float, Any], Phase],
) -> Phase:
    """Launch a server, open it, run ``measure`` on it with what the
    opening returned, shut it down, read its spans."""
    spans = ctx.work / f"server-spans-{time.monotonic_ns()}.json" if traced else None
    server = procs.Server(server_args, ctx.env, ctx.root, spans=spans)
    try:
        opened = opening(server)
        before = _stats(server)
        window_start = time.perf_counter()
        phase = measure(server, seconds, opened)
        window_end = time.perf_counter()
        phase.stats = _stat_delta(before, _stats(server))
    finally:
        server.close()
    if spans is not None:
        data = json.loads(spans.read_text())
        ops = tracing.server_ops(data["spans"], window_start, window_end, requests)
        phase.trace = tracing.summarise(data["spans"], ops)
        phase.trace["window"] = sum(op.seconds for op in phase.ops)
        phase.trace["server_ops"] = len(ops)
    return phase


Sampler = Callable[[Clock], None]


def _set_up(
    ctx: Context,
    server_args: Callable[[], list[str]],
    opening: Callable[[procs.Server], Any],
    requests: set[str],
    measure: Callable[[procs.Server, float, Any, Sampler], Phase],
) -> Result:
    """Measure on a fresh server; a traced run then measures again on a
    traced server.

    A set-up is a server launch until ``opening`` is done.  The measured
    server's own set-up is the first sample; ``measure`` takes more
    between its operations by calling the sampler, which launches and
    opens a separate server with the measure's clock stopped.
    """
    setup: list[float] = []

    def fresh() -> float:
        start = time.perf_counter()
        with procs.Server(server_args(), ctx.env, ctx.root) as server:
            opening(server)
            return time.perf_counter() - start

    def sample(clock: Clock) -> None:
        clock.sample(fresh, setup)

    def measure_sampled(server: procs.Server, seconds: float, opened: Any) -> Phase:
        return measure(server, seconds, opened, sample)

    start = time.perf_counter()

    def timed_opening(server: procs.Server) -> Any:
        opened = opening(server)
        setup.append(time.perf_counter() - start)
        return opened

    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    phase = _serve_phase(
        ctx, server_args(), requests, False, seconds, timed_opening, measure_sampled
    )
    if not ctx.trace:
        return Result(setup, phase)
    traced = _serve_phase(
        ctx, server_args(), requests, True, seconds, opening, measure_sampled
    )
    return Result(setup, traced, phase)


def _ping(server: procs.Server) -> None:
    with server.client() as client:
        client.ping()


# -- edit_session ------------------------------------------------------------------


def edit_session(ctx: Context) -> Result:
    sources = inputs.edit_round(ctx.seed, ctx.sizes)
    references, counts = {}, {}
    for source in dict.fromkeys(sources):
        references[source], counts[source] = prepare(
            source, lambda cfg: refs.check_reference(cfg, SERVICE_PROPERTY)
        )
    setup_failures: list[str] = []
    openings = [0]

    def opening(server: procs.Server) -> str:
        """Ping, then open the session with a cold ``patch``; its version."""
        with server.client() as client:
            client.ping()
            result = client.patch(sources[0], SERVICE_PROPERTY)
        openings[0] += 1
        error = _mismatch("session-opening patch", refs.service_nodes(result),
                          references[sources[0]])
        if error:
            setup_failures.append(error)
        return result["version"]

    def args() -> list[str]:
        return ["--journal-dir", str(ctx.scratch("journal-"))]

    def measure(
        server: procs.Server, seconds: float, version: str, sample: Sampler
    ) -> Phase:
        # Each round patches through the edits and back to the opening
        # text, then takes one set-up sample.
        ops: list[Op] = []
        edits = sources[1:]
        peak_rss = [0.0]
        clock = Clock(ctx.machine)
        with server.client() as client:

            def one_round(round_index: int) -> None:
                nonlocal version
                for source in edits:
                    clock.speed_sample()
                    begun = time.perf_counter()
                    try:
                        result = client.patch(source, SERVICE_PROPERTY, base=version)
                    except ServiceError as exc:
                        result = exc
                    elapsed = time.perf_counter() - begun
                    if isinstance(result, dict):
                        version = result["version"]
                    ops.append(_service_op(elapsed, source, result, references[source],
                                           counts[source], patch=True))
                if round_index == 0:
                    peak_rss[0] = server.peak_rss_mb()
                sample(clock)

            rounds, elapsed = run_rounds(seconds, one_round, clock)
        return Phase(ops, elapsed, rounds, len(edits), peak_rss[0])

    result = _set_up(ctx, args, opening, {"patch"}, measure)
    result.setup_checked = openings[0]
    result.setup_failures = setup_failures
    return result


def _service_op(
    seconds: float,
    source: str,
    result: Any,
    reference: Any,
    counts: dict[str, int],
    patch: bool = False,
    dataflow: bool = False,
) -> Op:
    op_counts = dict(counts)
    if isinstance(result, dict):
        if dataflow:
            got = refs.service_dataflow(result)
        else:
            got = refs.service_nodes(result)
            op_counts.update(
                constraints=result["constraints"],
                facts=result["facts"],
                violations=len(result["violations"]),
            )
        if patch:
            op_counts["patch"] = 1
            op_counts["patched"] = int(bool(result["patched"]))
            for name, value in (result.get("patch") or {}).items():
                op_counts[f"patch.{name}"] = value

    def verify() -> str | None:
        if not isinstance(result, dict):
            return f"request failed: {result}"
        return _mismatch("response", got, reference)

    return Op(seconds, source.count("\n"), len(source), verify, op_counts)


# -- serve_mix ---------------------------------------------------------------------


def _serve_request(
    client: Any, op: str, source: str, reference: Any, counts: dict[str, int]
) -> Op:
    start = time.perf_counter()
    try:
        if op == "check":
            result = client.request("check", program=source, property=SERVICE_PROPERTY)
        else:
            result = client.request("dataflow", program=source, track=TRACK)
    except ServiceError as exc:
        result = exc
    elapsed = time.perf_counter() - start
    return _service_op(elapsed, source, result, reference, counts,
                       dataflow=op == "dataflow")


def serve_mix(ctx: Context) -> Result:
    sizes = ctx.sizes
    pool = inputs.serve_pool(ctx.seed, sizes)
    schedule = inputs.serve_schedule(sizes)

    def both(cfg: Any) -> tuple[Counter, list[list]]:
        return (refs.check_reference(cfg, SERVICE_PROPERTY),
                refs.dataflow_reference(cfg, TRACK))

    prepared = [prepare(source, both) for source in pool]
    check_refs = [ref[0] for ref, _ in prepared]
    flow_refs = [ref[1] for ref, _ in prepared]
    counts = [size for _, size in prepared]

    def args() -> list[str]:
        return [
            "--workers", "2",
            "--cache-size", str(sizes.cache_size),
            "--snapshot-dir", str(ctx.scratch("snapshots-")),
        ]

    def measure(
        server: procs.Server, seconds: float, _opened: None, sample: Sampler
    ) -> Phase:
        ops: list[Op] = []
        lock = threading.Lock()
        clock = Clock(ctx.machine)
        state = {"steps": 0, "rounds": 0, "more": True, "rss": 0.0}
        errors: list[BaseException] = []

        def start_of_step() -> None:
            # both clients wait at the barrier: the server is idle
            clock.speed_sample()
            if state["steps"] % SETUP_EVERY_STEPS == SETUP_EVERY_STEPS - 1:
                sample(clock)
            state["steps"] += 1

        def end_of_round() -> None:
            state["rounds"] += 1
            state["more"] = another_round(clock.elapsed(), state["rounds"], seconds)
            if state["rounds"] == 1:
                state["rss"] = server.peak_rss_mb()

        step_barrier = threading.Barrier(2, action=start_of_step)
        round_barrier = threading.Barrier(2, action=end_of_round)

        def client_loop(side: int) -> None:
            try:
                with server.client() as client:
                    round_index = 0
                    while True:
                        for pair in schedule.steps:
                            step_barrier.wait()
                            op, index = pair[side]
                            entry = _serve_request(
                                client, op, inputs.tag_round(pool[index], round_index),
                                check_refs[index] if op == "check" else flow_refs[index],
                                counts[index],
                            )
                            with lock:
                                ops.append(entry)
                        round_barrier.wait()
                        if not state["more"]:
                            return
                        round_index += 1
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)
                step_barrier.abort()
                round_barrier.abort()

        threads = [threading.Thread(target=client_loop, args=(side,)) for side in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = clock.elapsed()
        if errors:
            raise errors[0]
        return Phase(ops, elapsed, state["rounds"], 2 * len(schedule.steps), state["rss"])

    result = _set_up(ctx, args, _ping, {"check", "dataflow"}, measure)
    result.record["mix_expected_per_round"] = schedule.outcomes
    return result


WORKLOADS = {
    "check_batch": check_batch,
    "edit_session": edit_session,
    "serve_mix": serve_mix,
}
