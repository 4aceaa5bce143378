"""Core solver benchmark: object-mode vs compiled annotation algebras.

Runs a fixed workload matrix over the three solver-bound experiment
families and writes a machine-readable result file:

* ``privilege_*``   — E1 (Table 1): model-check the full-privilege
  property on a synthetic package; object mode solves over
  representative functions with provenance on (the pre-specializer
  default).  ``privilege_diffprop`` runs the object-mode solver over
  table indices with provenance off — the difference-propagation
  drain on the object core.  ``privilege_compiled`` runs the same
  workload on the flat-array core (``repro.core.flatcore``): compiled
  mode *is* the flat core now, so this row is the headline number.
* ``genkill_*``     — E2 (Fig 1 / §3.3): interprocedural n-bit gen/kill
  dataflow; object mode uses the tuple ``ProductAlgebra``, compiled
  mode the packed-int ``CompiledGenKillAlgebra`` on the object core,
  and ``genkill_flat`` the same packed algebra on the flat core (with
  the numpy column backend when numpy is installed).
* ``flow_*``        — E7/E11 (Fig 11 / §7): label-flow analysis of a
  chain of instantiated pair functions; object vs compiled monoid
  algebra over the generated bracket machine.
* ``privilege_cycles_*`` — online cycle elimination ablation: a chain
  of identity-edge rings (``repro.synth.cycle_chain``) solved with the
  online collapser on (``elim``) and off (``noelim``), measured
  round-robin.  Their ``facts`` fields differ by construction (the
  elim run reports the quotient count); equivalence is asserted on the
  canonical solved forms instead.
* ``edit_*``        — incremental re-solving: an
  ``repro.synth.edit_stream`` of single-line edits over one large
  package, answered three ways — ``edit_patch`` (differential repair
  via ``StableCheck.apply_source``), ``edit_cold`` (fresh solve of the
  edited program), ``edit_warm`` (snapshot dump + load of the cold
  solver).  ``wall_s`` is the **median per-edit latency** over the
  stream (a single pass, not best-of-N — the stream is the workload);
  every step asserts the patched solver's canonical solved form equals
  the cold one's, and the full matrix asserts the patch path beats
  both alternatives by at least 5x median.  The durability variants —
  ``edit_patch_journaled`` (every edit write-ahead journaled and
  fsynced before applying), ``edit_recover`` (one-off journal-replay
  cost of a kill -9 restart mid-stream) and ``edit_patch_recovered``
  (per-edit latency on the recovered session) — assert the recovered
  solved form equals both the pre-crash session and a cold solve, and
  gate the journaling overhead at 25% of the unjournaled per-edit
  median (full matrix; the floor is one fsync per edit).
* ``saturation_scaleout_w*`` — service throughput vs process worker
  count: concurrent clients drive distinct cold privilege checks
  through a :class:`repro.service.dispatch.DispatchPool` of 1/2/4
  worker processes.  ``wall_s`` is the whole batch; extra keys record
  ``requests``, ``requests_per_s``, ``cpus`` (the cores actually
  available — process scaling is physically bounded by it), and
  ``speedup_vs_w1``.  The full matrix asserts >= 1.8x throughput at 4
  workers *when at least 4 cores are available*; on smaller hosts the
  rows are recorded and the gate reports itself skipped.

Output schema (``BENCH_solver.json`` at the repo root by default)::

    {
      "<bench>": {
        "wall_s": <float>,        # best-of-N wall-clock seconds
        "facts": <int>,           # solver.fact_count() after solving
        "compositions": <int>,    # solver.stats.compositions
        "ratio": <float>          # compositions / facts
      },
      ...
    }

``ratio`` is the difference-propagation health metric: with per-bucket
high-water marks every (fact, edge) pair composes exactly once at
fixpoint, so compositions track facts roughly linearly and the ratio
stays at or below ~1 on the diff-prop families at any workload size.
``--compare`` fails if a diff-prop family's ratio exceeds the 1.05
ceiling (a breach means re-composition waste crept back into the
drain loop).

Before writing results the matrix runs an untimed verification pass:
every family is re-solved once with ``track_redundant=True`` and must
report ``redundant_compositions == 0`` at fixpoint, and the flat-core
rows must reach canonical solved forms identical to the object core's
(the flat core is a representation change, never a semantic one).

Bench names are ``<family>_<mode>`` with ``mode`` in ``object`` /
``compiled``; both modes of a family run the identical workload, so
``facts`` must agree between them (asserted here — the specializer is
an equivalence-preserving representation change, §8).
``privilege_compiled_budget`` re-runs the compiled privilege workload
under a generous never-tripping :class:`repro.core.budget.Budget`,
quantifying the resource governor's hot-loop overhead (see
docs/PERFORMANCE.md); it is measured round-robin with
``privilege_compiled`` so machine drift cannot masquerade as governor
cost.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py             # full matrix
    PYTHONPATH=src python benchmarks/bench_core.py --quick     # CI smoke sizes
    PYTHONPATH=src python benchmarks/bench_core.py --quick \\
        --compare BENCH_solver.json --tolerance 3.0            # regression gate

``--compare`` exits non-zero if any bench shared with the committed
file is slower than ``tolerance ×`` its committed ``wall_s`` — the CI
smoke gate.  Quick-mode workloads are strictly smaller than the
committed full-matrix ones, so the gate only fires on real regressions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cfg import build_cfg  # noqa: E402
from repro.core.budget import Budget  # noqa: E402
from repro.core.persist import dump_solver, load_solver  # noqa: E402
from repro.dataflow import AnnotatedBitVectorAnalysis  # noqa: E402
from repro.dataflow.problems import call_tracking_problem  # noqa: E402
from repro.flow import FlowAnalysis  # noqa: E402
from repro.dfa.gallery import privilege_machine  # noqa: E402
from repro.incremental import StableCheck  # noqa: E402
from repro.modelcheck import AnnotatedChecker, full_privilege_property  # noqa: E402
from repro.modelcheck.properties import simple_privilege_property  # noqa: E402
from repro.synth import (  # noqa: E402
    PackageSpec,
    cycle_chain,
    edit_stream,
    generate_package,
    solve_bidirectional,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_solver.json"

PRIMITIVES = [
    "seteuid",
    "execl",
    "setuid",
    "system",
    "log_message",
    "read_config",
    "setreuid",
    "getuid",
]


def wide_flow_program(n_functions: int) -> str:
    """Chain of single-pair functions (benchmarks/test_fig11_flow.py)."""
    lines = []
    for i in range(n_functions):
        lines.append(f"f{i}(y : int) : b{i} = (y@In{i}, {i})@P{i};")
    body = "1@Seed"
    for i in range(n_functions):
        body = f"(f{i}^s{i}({body})).1"
    lines.append(f"main() : int = {body}@V;")
    return "\n".join(lines)


def _row(solver, wall_s: float) -> dict:
    facts = solver.fact_count()
    compositions = solver.stats.compositions
    return {
        "wall_s": round(wall_s, 4),
        "facts": facts,
        "compositions": compositions,
        "ratio": round(compositions / facts, 4) if facts else 0.0,
    }


def _measure(run, repeats: int) -> dict:
    """Best-of-``repeats`` wall time; facts/compositions from the last run."""
    best = float("inf")
    solver = None
    for _ in range(repeats):
        start = time.perf_counter()
        solver = run()
        best = min(best, time.perf_counter() - start)
    return _row(solver, best)


def _measure_interleaved(runs: dict, repeats: int) -> dict[str, dict]:
    """Best-of-``repeats`` for several callables, round-robin.

    Alternating the variants inside one loop makes slow machine drift
    (thermal throttling, noisy neighbors) hit every variant equally, so
    *differences* between them stay meaningful — which is the whole
    point of the budget-overhead pair.  Sequential best-of-N can show a
    20%+ phantom gap between identical workloads on a drifting host.
    """
    best = {name: float("inf") for name in runs}
    solvers: dict = {}
    for _ in range(repeats):
        for name, run in runs.items():
            start = time.perf_counter()
            solvers[name] = run()
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: _row(solvers[name], best[name]) for name in runs}


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def run_edit_stream(quick: bool) -> dict[str, dict]:
    """The ``edit_*`` family: differential repair vs its alternatives.

    One pass over an edit stream; at each step the three strategies
    produce (what must be) the same solved session, and each strategy's
    per-edit latency is recorded.  Cold and warm are measured on the
    same edited version the patch just reached, so all three rows
    answer the identical question: "the program changed by one line —
    how long until a solved session for the new version?"
    """
    lines, functions, n_edits = (1_200, 18, 8) if quick else (6_000, 80, 24)
    spec = PackageSpec("bench-edit", lines, functions, seed=4)
    steps = list(edit_stream(spec, n_edits))
    prop = simple_privilege_property()

    live = StableCheck(steps[0].source, prop)
    patch_lat: list[float] = []
    cold_lat: list[float] = []
    warm_lat: list[float] = []
    for step in steps[1:]:
        start = time.perf_counter()
        live.apply_source(step.source)
        patch_lat.append(time.perf_counter() - start)

        start = time.perf_counter()
        cold = StableCheck(step.source, prop)
        cold_lat.append(time.perf_counter() - start)

        blob = dump_solver(cold.solver)
        start = time.perf_counter()
        load_solver(blob)
        warm_lat.append(time.perf_counter() - start)

        assert set(live.solver.canonical_facts()) == set(
            cold.solver.canonical_facts()
        ), f"patched solved form diverged from cold at step {step.step}"

    def row(samples: list[float]) -> dict:
        return _row(live.solver, _median(samples))

    results = {
        "edit_patch": row(patch_lat),
        "edit_cold": row(cold_lat),
        "edit_warm": row(warm_lat),
    }
    patch_med = _median(patch_lat)
    cold_med = _median(cold_lat)
    warm_med = _median(warm_lat)
    if quick:
        # tiny instances leave little room; just require a real win
        assert cold_med > patch_med, (
            f"patch median {patch_med:.4f}s is no faster than cold "
            f"{cold_med:.4f}s"
        )
    else:
        for rival, med in (("cold", cold_med), ("warm", warm_med)):
            assert med >= 5 * patch_med, (
                f"patch median {patch_med:.4f}s is less than 5x faster "
                f"than {rival} {med:.4f}s"
            )
    return results


def run_edit_recovery(quick: bool) -> dict[str, dict]:
    """The ``edit_patch_journaled`` / ``edit_patch_recovered`` family.

    Same edit stream as ``edit_patch``, but every accepted edit is
    write-ahead journaled (``SessionJournal``, fsync batch 1) before it
    is applied — the service tier's durability path.  Mid-stream the
    session "crashes" (journal closed, live solver discarded) and is
    rebuilt by journal replay; the remaining edits patch the recovered
    session.  Three measurements:

    * ``edit_patch_journaled``  — per-edit latency with journaling, the
      durability overhead vs ``edit_patch``;
    * ``edit_recover``          — the one-off replay cost of the
      kill -9 restart;
    * ``edit_patch_recovered``  — per-edit latency *after* recovery,
      which must be indistinguishable from before (the recovered
      session really is the session).

    The recovered solved form is asserted equal to both the pre-crash
    session and a cold solve at every remaining step — the bench-side
    half of the kill -9 acceptance test.
    """
    import tempfile

    from repro.service import SessionJournal, program_hash
    from repro.service.journal import JournalLineage

    lines, functions, n_edits = (1_200, 18, 8) if quick else (6_000, 80, 24)
    spec = PackageSpec("bench-edit", lines, functions, seed=4)
    steps = list(edit_stream(spec, n_edits))
    prop = simple_privilege_property()
    edits = steps[1:]
    mid = len(edits) // 2
    fp = "bench-session"

    plain_lat: list[float] = []
    journaled_lat: list[float] = []
    recovered_lat: list[float] = []
    with tempfile.TemporaryDirectory() as d:
        journal = SessionJournal(d, fsync_every=1)
        plain = StableCheck(steps[0].source, prop)
        live = StableCheck(steps[0].source, prop)
        prev = program_hash(steps[0].source)
        journal.begin(fp, "simple-privilege", prev, steps[0].source)
        for step in edits[:mid]:
            version = program_hash(step.source)
            start = time.perf_counter()
            journal.append(fp, prev, version, step.source, None)
            live.apply_source(step.source)
            journaled_lat.append(time.perf_counter() - start)
            start = time.perf_counter()
            plain.apply_source(step.source)
            plain_lat.append(time.perf_counter() - start)
            prev = version
        journal.close()

        # kill -9: the live solver is gone; only the journal survives
        pre_crash = set(live.solver.canonical_facts())
        del live
        start = time.perf_counter()
        journal = SessionJournal(d, fsync_every=1)
        lineage = journal.load(fp)
        assert isinstance(lineage, JournalLineage), lineage
        recovered = StableCheck(lineage.base_source, prop)
        for record in lineage.patches:
            recovered.apply_source(record["source"])
        recover_s = time.perf_counter() - start
        assert set(recovered.solver.canonical_facts()) == pre_crash, (
            "journal replay did not restore the pre-crash solved form"
        )

        for step in edits[mid:]:
            version = program_hash(step.source)
            start = time.perf_counter()
            journal.append(fp, prev, version, step.source, None)
            recovered.apply_source(step.source)
            recovered_lat.append(time.perf_counter() - start)
            start = time.perf_counter()
            plain.apply_source(step.source)
            plain_lat.append(time.perf_counter() - start)
            prev = version
        journal.close()

        cold = StableCheck(steps[-1].source, prop)
        assert set(recovered.solver.canonical_facts()) == set(
            cold.solver.canonical_facts()
        ), "recovered session diverged from the cold solve at stream end"

        results = {
            "edit_patch_journaled": _row(
                recovered.solver, _median(journaled_lat)
            ),
            "edit_recover": _row(recovered.solver, recover_s),
            "edit_patch_recovered": _row(
                recovered.solver, _median(recovered_lat)
            ),
        }

    plain_med = _median(plain_lat)
    journaled_med = _median(journaled_lat + recovered_lat)
    # journaling (append + fsync ahead of apply) must stay in the noise
    # of the patch itself; the floor is one fsync per edit, so the
    # ceiling leaves room for slow container disks, and tiny quick
    # instances leave more still
    ceiling = 2.0 if quick else 1.25
    assert journaled_med <= ceiling * plain_med, (
        f"journaled per-edit median {journaled_med:.4f}s exceeds "
        f"{ceiling:.2f}x the unjournaled {plain_med:.4f}s"
    )
    if quick:
        # the quick stream leaves only 4 post-recovery edits, so these
        # rows' medians are dominated by which cones those edits hit —
        # run every assertion above but report timings only from the
        # full matrix, keeping the --compare gate meaningful
        return {}
    return results


def run_saturation_scaleout(quick: bool) -> dict[str, dict]:
    """The ``saturation_scaleout_w*`` family: pool throughput vs workers.

    Each request is a *distinct* generated package (different seed), so
    every solve is cold — identical programs would measure the worker
    engines' LRU cache, not the solver.  Pool spawn + preload cost is
    excluded (workers are warmed with pings before the clock starts);
    steady-state throughput is the thing being scaled.
    """
    from concurrent.futures import ThreadPoolExecutor
    import os

    from repro.service.dispatch import DispatchPool

    lines, functions, n_requests = (
        (600, 8, 6) if quick else (1_500, 15, 12)
    )
    programs = [
        generate_package(
            PackageSpec(f"bench-saturation-{i}", lines, functions, seed=100 + i)
        )
        for i in range(n_requests)
    ]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1

    results: dict[str, dict] = {}
    base_wall: float | None = None
    for workers in (1, 2, 4):
        pool = DispatchPool(workers=workers, preload=["full-privilege"])
        try:
            # Spawn + preload every worker before the clock starts.
            warm = [pool.submit("ping", {}) for _ in range(workers)]
            for future, handle in warm:
                pool.collect(future, handle)
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=max(4, workers)) as clients:
                futures = [
                    clients.submit(
                        pool.execute,
                        "check",
                        {"program": program, "property": "full-privilege"},
                    )
                    for program in programs
                ]
                responses = [future.result() for future in futures]
            wall = time.perf_counter() - start
        finally:
            pool.shutdown()
        facts = sum(response["facts"] for response in responses)
        row = {
            "wall_s": round(wall, 4),
            "facts": facts,
            "compositions": 0,
            "ratio": 0.0,
            "requests": n_requests,
            "requests_per_s": round(n_requests / wall, 3) if wall else 0.0,
            "workers": workers,
            "cpus": cpus,
        }
        if base_wall is None:
            base_wall = wall
        else:
            row["speedup_vs_w1"] = round(base_wall / wall, 3)
        results[f"saturation_scaleout_w{workers}"] = row
    speedup = results["saturation_scaleout_w4"].get("speedup_vs_w1", 0.0)
    if not quick and cpus >= 4:
        assert speedup >= 1.8, (
            f"saturation_scaleout: 4 workers gave {speedup:.2f}x over 1 "
            f"on {cpus} cores — expected >= 1.8x"
        )
    elif cpus < 4:
        print(
            f"saturation_scaleout: {cpus} cpu(s) available; the "
            ">= 1.8x @ 4 workers gate needs >= 4 cores and was skipped "
            f"(measured {speedup:.2f}x)"
        )
    return results


def run_matrix(quick: bool, repeats: int) -> dict[str, dict]:
    results: dict[str, dict] = {}

    # -- E1: privilege model checking ------------------------------------
    lines, functions = (3_000, 30) if quick else (20_000, 150)
    source = generate_package(
        PackageSpec("bench-privilege", lines, functions, seed=7)
    )
    cfg = build_cfg(source)
    prop = full_privilege_property()

    def privilege(mode: str, budget: Budget | None = None, **kwargs):
        checker = AnnotatedChecker(
            cfg,
            prop,
            compiled=mode != "object",
            flat=mode == "flat",
            record_reasons=mode == "object",
            budget=budget,
            **kwargs,
        )
        checker.check()
        return checker.solver

    results["privilege_object"] = _measure(lambda: privilege("object"), repeats)

    # Three variants of the same compiled workload, interleaved so
    # machine drift hits them equally:
    #   privilege_diffprop        — object core, difference propagation
    #   privilege_compiled        — flat-array core (the headline row)
    #   privilege_compiled_budget — flat core under a generous
    #     (never-tripping) Budget: isolates the resource governor's
    #     hot-loop cost, the per-fact countdown plus one full limit
    #     evaluation per check interval.
    results.update(
        _measure_interleaved(
            {
                "privilege_diffprop": lambda: privilege("diffprop"),
                "privilege_compiled": lambda: privilege("flat"),
                "privilege_compiled_budget": lambda: privilege(
                    "flat", budget=Budget(max_steps=10**9)
                ),
            },
            repeats,
        )
    )
    assert (
        results["privilege_compiled_budget"]["facts"]
        == results["privilege_compiled"]["facts"]
    ), "a non-tripping budget changed the solved form"
    assert (
        results["privilege_diffprop"]["facts"]
        == results["privilege_compiled"]["facts"]
    ), "the flat core changed the privilege fact count"

    # -- E2: n-bit gen/kill dataflow -------------------------------------
    n_bits = 4 if quick else 8
    df_source = generate_package(
        PackageSpec("bench-dataflow", 1_500 if quick else 3_000, 40, seed=19)
    )
    df_cfg = build_cfg(df_source)
    problem = call_tracking_problem(df_cfg, PRIMITIVES[:n_bits])

    def genkill(compiled: bool, flat: bool = False, **kwargs):
        analysis = AnnotatedBitVectorAnalysis(
            df_cfg, problem, compiled=compiled, flat=flat, **kwargs
        )
        analysis.solution()
        return analysis.solver

    results["genkill_object"] = _measure(lambda: genkill(False), repeats)
    results.update(
        _measure_interleaved(
            {
                "genkill_compiled": lambda: genkill(True),
                "genkill_flat": lambda: genkill(True, flat=True),
            },
            repeats,
        )
    )
    assert (
        results["genkill_flat"]["facts"] == results["genkill_compiled"]["facts"]
    ), "the flat core changed the gen/kill fact count"

    # -- E7/E11: Fig 11 label flow ---------------------------------------
    flow_source = wide_flow_program(8 if quick else 14)

    def flow(compiled: bool, **kwargs):
        analysis = FlowAnalysis(flow_source, compiled=compiled, **kwargs)
        assert analysis.flows("Seed", "V")
        return analysis.system.solver

    results["flow_object"] = _measure(lambda: flow(False), repeats)
    results["flow_compiled"] = _measure(lambda: flow(True), repeats)

    # -- cycle elimination ablation --------------------------------------
    n_cycles, size, sources = (4, 12, 12) if quick else (10, 48, 48)
    ring_machine = privilege_machine()
    workload = cycle_chain(
        ring_machine, n_cycles=n_cycles, cycle_size=size, seed=3,
        n_sources=sources,
    )

    results.update(
        _measure_interleaved(
            {
                "privilege_cycles_elim": lambda: solve_bidirectional(
                    ring_machine, workload, cycle_elim=True
                ),
                "privilege_cycles_noelim": lambda: solve_bidirectional(
                    ring_machine, workload, cycle_elim=False
                ),
            },
            repeats,
        )
    )
    # Collapsing is only admissible because it preserves the solution:
    # check it, on the canonical (identity-SCC quotient) solved forms.
    elim_form = set(
        solve_bidirectional(ring_machine, workload, cycle_elim=True)
        .canonical_facts()
    )
    noelim_form = set(
        solve_bidirectional(ring_machine, workload, cycle_elim=False)
        .canonical_facts()
    )
    assert elim_form == noelim_form, (
        "cycle elimination changed the canonical solved form "
        f"({len(elim_form)} vs {len(noelim_form)} facts)"
    )

    # -- fixpoint invariant + cross-core equivalence (untimed) -----------
    # Difference propagation's contract: at fixpoint no (fact, edge)
    # pair has composed twice.  Re-solve every family once with the
    # redundancy tracker on, and hold the flat-core rows to canonical
    # solved forms identical to the object core's.
    flat_priv = privilege("flat", track_redundant=True)
    obj_priv = privilege("diffprop", track_redundant=True)
    assert set(flat_priv.canonical_facts()) == set(obj_priv.canonical_facts()), (
        "flat core diverged from the object core on the privilege workload"
    )
    flat_gk = genkill(True, flat=True, track_redundant=True)
    obj_gk = genkill(True, track_redundant=True)
    assert set(flat_gk.canonical_facts()) == set(obj_gk.canonical_facts()), (
        "flat core diverged from the object core on the gen/kill workload"
    )
    tracked = {
        "privilege_compiled": flat_priv,
        "privilege_diffprop": obj_priv,
        "genkill_flat": flat_gk,
        "genkill_compiled": obj_gk,
        "flow_compiled": flow(True, track_redundant=True),
        "privilege_cycles_elim": solve_bidirectional(
            ring_machine, workload, cycle_elim=True, track_redundant=True
        ),
        "privilege_cycles_noelim": solve_bidirectional(
            ring_machine, workload, cycle_elim=False, track_redundant=True
        ),
    }
    for name, solver in tracked.items():
        redundant = solver.stats.redundant_compositions
        assert redundant == 0, (
            f"{name}: {redundant} redundant compositions at fixpoint — "
            "difference propagation re-composed a (fact, edge) pair"
        )
    print(
        "fixpoint invariant: redundant_compositions == 0 on "
        f"{len(tracked)} tracked workloads; flat ≡ object canonical forms"
    )

    # -- incremental re-solving: patch vs cold vs warm -------------------
    results.update(run_edit_stream(quick))

    # -- durability: journaled edits + kill -9 recovery ------------------
    results.update(run_edit_recovery(quick))

    # -- process-pool saturation -----------------------------------------
    results.update(run_saturation_scaleout(quick))

    for family in ("privilege", "genkill", "flow"):
        obj, comp = results[f"{family}_object"], results[f"{family}_compiled"]
        assert obj["facts"] == comp["facts"], (
            f"{family}: compiled mode derived {comp['facts']} facts, "
            f"object mode {obj['facts']} — the specializer changed semantics"
        )
    return results


def print_table(results: dict[str, dict]) -> None:
    print(
        f"{'bench':26} {'wall_s':>9} {'facts':>9} {'compositions':>13} "
        f"{'ratio':>7}"
    )
    for name, row in results.items():
        print(
            f"{name:26} {row['wall_s']:9.4f} {row['facts']:9d} "
            f"{row['compositions']:13d} {row['ratio']:7.3f}"
        )
    for family in ("privilege", "genkill", "flow"):
        obj = results[f"{family}_object"]["wall_s"]
        comp = results[f"{family}_compiled"]["wall_s"]
        if comp > 0:
            print(f"{family}: compiled speedup {obj / comp:.2f}x")
    if "privilege_diffprop" in results:
        diffprop = results["privilege_diffprop"]["wall_s"]
        flat = results["privilege_compiled"]["wall_s"]
        if flat > 0:
            print(f"privilege: flat core beats object diff-prop {diffprop / flat:.2f}x")
    if "genkill_flat" in results:
        comp = results["genkill_compiled"]["wall_s"]
        flat = results["genkill_flat"]["wall_s"]
        if flat > 0:
            print(f"genkill: flat core beats object core {comp / flat:.2f}x")
    if "privilege_cycles_elim" in results:
        on = results["privilege_cycles_elim"]["wall_s"]
        off = results["privilege_cycles_noelim"]["wall_s"]
        if on > 0:
            print(f"privilege_cycles: cycle-elim speedup {off / on:.2f}x")
    if "edit_patch" in results:
        patch = results["edit_patch"]["wall_s"]
        if patch > 0:
            cold = results["edit_cold"]["wall_s"]
            warm = results["edit_warm"]["wall_s"]
            print(
                f"edit: patch beats cold {cold / patch:.1f}x, "
                f"warm start {warm / patch:.1f}x (median per-edit latency)"
            )
    if "saturation_scaleout_w4" in results:
        w1 = results["saturation_scaleout_w1"]
        w4 = results["saturation_scaleout_w4"]
        print(
            f"saturation: {w4.get('speedup_vs_w1', 0.0):.2f}x throughput "
            f"at 4 process workers vs 1 on {w4['cpus']} cpu(s) "
            f"({w1['requests_per_s']:.2f} -> {w4['requests_per_s']:.2f} req/s)"
        )
    if "edit_patch_journaled" in results:
        patch = results["edit_patch"]["wall_s"]
        journaled = results["edit_patch_journaled"]["wall_s"]
        recovered = results["edit_patch_recovered"]["wall_s"]
        if patch > 0:
            print(
                f"edit: journaling overhead {journaled / patch - 1:+.1%}, "
                f"post-recovery patch {recovered / patch - 1:+.1%} vs "
                "edit_patch median"
            )


# Families whose drain loop runs on difference propagation: at
# fixpoint every (fact, edge) pair composes exactly once, which keeps
# compositions/facts at or below ~1 on these workloads at any size
# (measured: 0.66-0.98 quick, 0.78-0.84 full).  --compare gates them
# on an absolute ratio ceiling as well as wall time — unlike wall time
# the ratio is deterministic, so a breach is always a real
# re-composition bug, never CI-runner noise.
DIFFPROP_FAMILIES = (
    "privilege_compiled",
    "privilege_diffprop",
    "genkill_compiled",
    "genkill_flat",
)
RATIO_CEILING = 1.05


def compare(
    results: dict[str, dict], baseline_path: pathlib.Path, tolerance: float
) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, row in results.items():
        committed = baseline.get(name)
        if committed is None:
            continue
        limit = tolerance * committed["wall_s"]
        if row["wall_s"] > limit:
            failures.append(
                f"{name}: {row['wall_s']:.4f}s exceeds {tolerance:.1f}x "
                f"committed {committed['wall_s']:.4f}s"
            )
        if name in DIFFPROP_FAMILIES and row["ratio"] > RATIO_CEILING:
            failures.append(
                f"{name}: compositions/facts ratio {row['ratio']:.4f} "
                f"exceeds the {RATIO_CEILING:.2f} diff-prop ceiling — "
                "re-composition waste crept back into the drain loop"
            )
    if failures:
        print("REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"no bench exceeded {tolerance:.1f}x its committed wall_s")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small CI-smoke workloads"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="take best-of-N wall time"
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="result JSON path (default: BENCH_solver.json at repo root)",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and print only"
    )
    parser.add_argument(
        "--compare",
        type=pathlib.Path,
        default=None,
        help="committed BENCH_solver.json to gate against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="fail --compare when wall_s exceeds tolerance x committed",
    )
    args = parser.parse_args(argv)

    results = run_matrix(quick=args.quick, repeats=args.repeats)
    print_table(results)
    if args.compare is not None:
        return compare(results, args.compare, args.tolerance)
    if not args.no_write:
        args.output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
