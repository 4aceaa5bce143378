"""Time to verdict on ``check_batch``, ``edit_session`` and ``serve_mix``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs the workload once untraced and once with the
layer wrappers of ``tracing.py`` installed in the analysed processes,
and reports the per-layer metrics.  Times and rates are reported at the
reference machine speed of ``speed.py``; the record line keeps the
values as measured.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only
when every verdict matched its independent reference.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "kloc_per_s": "kloc/s",
    "ops_per_s": "1/s",
    "p50_s": "s",
    "tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: the same metrics under the names they have on each workload
WORKLOAD_NAMES = {
    "check_batch": {"kloc_per_s": "check_kloc_per_s", "p50_s": "check_p50_s",
                    "tail_s": "check_tail_s", "ops_per_s": "check_per_s"},
    "edit_session": {"kloc_per_s": "edit_kloc_per_s", "p50_s": "edit_p50_s",
                     "tail_s": "edit_tail_s", "ops_per_s": "edit_per_s"},
    "serve_mix": {"kloc_per_s": "serve_kloc_per_s", "p50_s": "serve_p50_s",
                  "tail_s": "serve_tail_s", "ops_per_s": "serve_rps"},
}


#: The percentile ``tail_s`` reports, fixed per workload so that a
#: faster commit, which fits more operations into a run, is compared at
#: the same percentile.  Each is the highest percentile with at least 10
#: samples beyond it at the sample count of a run at this commit
#: (edit_session: 4 rounds of 8 patches; serve_mix: 1 round of 100
#: requests), moved to the middle of a round's cost class.  A round
#: repeats the same operations, so over whole rounds the percentile
#: picks the same class however many rounds fit.  check_batch runs 1 or
#: 2 rounds of 4 packages: its tail is the slowest package's time.
TAIL_PERCENTILE = {"check_batch": 87.5, "edit_session": 68.75, "serve_mix": 90.0}


def tail(latencies: list[float], percentile: float) -> dict:
    """The nearest-rank ``percentile`` of ``latencies``."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, math.ceil(percentile / 100 * n - 1e-9))
    return {
        "value": ordered[rank - 1],
        "percentile": percentile,
        "samples": n,
        "beyond": n - rank,
    }


def end_to_end(workload: str, result) -> tuple[dict[str, float], dict]:
    phase = result.measured
    latencies = [op.seconds for op in phase.ops]
    tail_info = tail(latencies, TAIL_PERCENTILE[workload])
    metrics = {
        "kloc_per_s": sum(op.lines for op in phase.ops) / 1000 / phase.elapsed,
        "ops_per_s": len(phase.ops) / phase.elapsed,
        "p50_s": statistics.median(latencies),
        "tail_s": tail_info["value"],
        "setup_s": statistics.median(result.setup),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    return metrics, tail_info


PER_LAYER_UNITS = {
    "cfg.tokenize_s": "s", "cfg.parse_s": "s", "cfg.build_s": "s",
    "cfg.passes": "ratio", "cfg.nodes": "count", "cfg.tokens": "count",
    "annotations.build_s": "s", "annotations.functions": "count",
    "modelcheck.encode_s": "s", "modelcheck.constraints": "count",
    "solver.drain_s": "s", "solver.facts": "count", "solver.compositions": "count",
    "solver.compositions_per_fact": "ratio", "solver.find_calls": "count",
    "solver.vars_merged": "count",
    "incremental.apply_s": "s", "incremental.cone_size": "count",
    "incremental.facts_rederived": "count", "incremental.fallbacks": "count",
    "queries.reach_s": "s", "queries.scan_s": "s", "queries.violations": "count",
    "persist.dump_s": "s", "persist.load_s": "s", "persist.snapshot_bytes": "bytes",
    "journal.append_s": "s", "journal.appends": "count",
    "engine.hit_share": "ratio", "engine.warm_share": "ratio",
    "engine.cold_share": "ratio", "engine.solve_s": "s", "engine.dispatch_s": "s",
    "transport.wait_s": "s", "transport.response_bytes": "bytes",
    "trace.coverage": "ratio", "trace.overhead_share": "ratio",
}
#: self-time metrics: metric -> span name
SELF_SECONDS = {
    "cfg.tokenize_s": "cfg.tokenize", "cfg.parse_s": "cfg.parse",
    "cfg.build_s": "cfg.build", "annotations.build_s": "annotations.build",
    "modelcheck.encode_s": "modelcheck.encode", "solver.drain_s": "solver.drain",
    "incremental.apply_s": "incremental.apply", "queries.reach_s": "queries.reach",
    "queries.scan_s": "queries.scan", "persist.dump_s": "persist.dump",
    "persist.load_s": "persist.load", "journal.append_s": "journal.append",
    "engine.dispatch_s": "engine.dispatch",
}
#: per-operation counts: metric -> span count
COUNTS = {
    "cfg.nodes": "cfg.build.nodes", "cfg.tokens": "cfg.tokenize.tokens",
    "annotations.functions": "annotations.build.functions",
    "modelcheck.constraints": "queries.scan.constraints",
    "solver.facts": "queries.scan.facts",
    "solver.compositions": "solver.drain.compositions",
    "solver.find_calls": "solver.drain.find_calls",
    "solver.vars_merged": "solver.drain.vars_merged",
    "incremental.cone_size": "incremental.apply.cone_size",
    "incremental.facts_rederived": "incremental.apply.facts_rederived",
    "queries.violations": "queries.scan.violations",
    "transport.response_bytes": "transport.server.response_bytes",
}


def cfg_passes(phase) -> float:
    """Characters parsed per character of the operations' programs."""
    parsed = phase.trace["counts"].get("cfg.parse.chars", 0)
    return parsed / sum(op.chars for op in phase.ops)


def per_layer(result) -> dict[str, float]:
    phase, baseline = result.measured, result.baseline
    summary = phase.trace
    n = len(phase.ops)
    seconds, counts = summary["seconds"], summary["counts"]
    metrics = {m: seconds.get(span, 0.0) / n for m, span in SELF_SECONDS.items()}
    metrics.update({m: counts.get(key, 0) / n for m, key in COUNTS.items()})
    facts = counts.get("queries.scan.facts", 0)
    metrics["solver.compositions_per_fact"] = (
        counts.get("solver.drain.compositions", 0) / facts if facts else 0.0
    )
    metrics["cfg.passes"] = cfg_passes(phase)
    metrics["incremental.fallbacks"] = sum(
        op.counts.get("patch", 0) - op.counts.get("patched", 0) for op in phase.ops
    ) / n
    metrics["persist.snapshot_bytes"] = (
        counts.get("persist.dump.bytes", 0) + counts.get("persist.load.bytes", 0)
    ) / n
    metrics["journal.appends"] = summary["calls"].get("journal.append", 0) / n
    stats = phase.stats
    lookups = stats.get("cache.solve.hits", 0) + stats.get("cache.solve.misses", 0)
    warm = stats.get("cache.snapshot.warm", 0)
    if lookups:
        metrics["engine.hit_share"] = stats["cache.solve.hits"] / lookups
        metrics["engine.warm_share"] = warm / lookups
        metrics["engine.cold_share"] = (stats["cache.solve.misses"] - warm) / lookups
    else:
        metrics["engine.hit_share"] = metrics["engine.warm_share"] = 0.0
        metrics["engine.cold_share"] = 0.0
    metrics["engine.solve_s"] = stats.get("solve_seconds", 0.0) / n
    metrics["transport.wait_s"] = 0.0
    if "request_seconds" in stats:
        round_trips = sum(op.seconds for op in phase.ops)
        metrics["transport.wait_s"] = (round_trips - stats["request_seconds"]) / n
    metrics["trace.coverage"] = summary["covered"] / summary["window"]
    traced = statistics.fmean(op.seconds for op in phase.ops)
    untraced = statistics.fmean(op.seconds for op in baseline.ops)
    metrics["trace.overhead_share"] = traced / untraced - 1
    return metrics


def record(workload: str, args, result, tail_info: dict | None) -> dict:
    """Inputs and outcomes of the run, counts summed per round.

    Rounds repeat the same inputs, so a round's counts are equal across
    runs of one seed at one commit.  Within a run the ``patch`` counters
    may differ between rounds: DRed repair work depends on the
    session's history, not only on the program.
    """
    phase = result.measured
    rounds: list[dict[str, int]] = []
    for index, op in enumerate(phase.ops):
        if index % phase.per_round == 0:
            rounds.append({})
        for key, value in op.counts.items():
            rounds[-1][key] = rounds[-1].get(key, 0) + value
    stats = phase.stats
    out = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": phase.rounds,
        "ops": len(phase.ops),
        "ops_per_round": phase.per_round,
        "counts_per_round": rounds,
        "setup_samples": [round(s, 4) for s in result.setup],
        **result.record,
    }
    if stats.get("cache.solve.hits", 0) + stats.get("cache.solve.misses", 0):
        warm = stats["cache.snapshot.warm"]
        out["mix_observed_per_round"] = {
            "hit": stats["cache.solve.hits"] / phase.rounds,
            "warm": warm / phase.rounds,
            "cold": (stats["cache.solve.misses"] - warm) / phase.rounds,
        }
    if tail_info is not None:
        out["tail"] = {k: v for k, v in tail_info.items() if k != "value"}
    if phase.trace is not None:
        out["traced_server_ops"] = phase.trace.get("server_ops")
        out["cfg_passes"] = cfg_passes(phase)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every input (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import inputs
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        ctx = workloads.Context(
            ROOT, work, args.seed, args.seconds,
            inputs.TINY if args.size == "tiny" else inputs.FULL,
            bool(args.trace),
        )
        result = workloads.WORKLOADS[args.workload](ctx)
        phases = [result.measured] + ([result.baseline] if result.baseline else [])
        errors = [e for phase in phases for e in (op.verify() for op in phase.ops) if e]
        errors += result.setup_failures
        attempted = sum(len(p.ops) for p in phases) + result.setup_checked
        if args.trace:
            values = per_layer(result)
            units, tail_info = PER_LAYER_UNITS, None
        else:
            values, tail_info = end_to_end(args.workload, result)
            units = END_TO_END_UNITS
        facts = record(args.workload, args, result, tail_info)
        scale = ctx.machine.scale()
        facts["speed"] = {
            "kernel_samples": [round(s, 4) for s in ctx.machine.samples],
            "reference_s": speed.REFERENCE_S,
            "scale": scale,
            "measured": values,
        }
        values = {
            name: speed.at_reference(value, units[name], scale)
            for name, value in values.items()
        }
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = WORKLOAD_NAMES[args.workload]
    for name, value in values.items():
        label = names.get(name, name)
        print(f"{label:32} {value:.6g} {units[name]}")
    if tail_info is not None:
        print(f"{'':32} tail = p{tail_info['percentile']} of {tail_info['samples']} "
              f"samples, {tail_info['beyond']} beyond")
    print(f"{'':32} times at the reference speed: measured x {scale:.4g} "
          f"(speed kernel median of {len(ctx.machine.samples)} samples)")
    print(f"{'fail_share':32} {len(errors) / attempted:.6g} ratio "
          f"({len(errors)} of {attempted})")
    for error in errors[:10]:
        print(f"  FAILED: {error}")
    print("record " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
