"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Every workload runs at a tiny size for two seconds, untraced and
traced; an injected wrong reference must fail the run, and a removed
wrapper must lower the traced coverage.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload: str, trace: int) -> None:
    code, lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
    if "mix_expected_per_round" in record:
        # the schedule simulation predicts the engine's cache outcomes
        assert record["mix_observed_per_round"] == record["mix_expected_per_round"]
    if trace:
        assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1
    if trace and workload == "edit_session":
        # validation parse + lazy CFG rebuild, plus the edited chunks
        assert 2 <= result["metrics"]["cfg.passes"]["value"] < 2.5


def test_wrong_reference_fails(monkeypatch, capsys) -> None:
    def wrong(cfg: object, prop: str) -> Counter:
        return Counter({"main:1": 1})

    monkeypatch.setattr("refs.check_reference", wrong)
    code = run.main(["--workload", "check_batch", "--seed", "3", "--seconds", "1",
                     "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_removed_wrapper_lowers_coverage(tmp_path: Path) -> None:
    package = inputs.check_batch_round(3, inputs.TINY)[0]
    source = tmp_path / "p.c"
    source.write_text(package.source)

    def coverage(*skip: str) -> float:
        spans = tmp_path / f"spans{len(skip)}.json"
        options = ["--skip", ",".join(skip)] if skip else []
        subprocess.run(
            [sys.executable, str(procs.TRACE_BOOT), str(spans), *options, "--",
             "check", str(source), "--property", inputs.CHECK_PROPERTY],
            env=procs.repro_env(ROOT), cwd=ROOT, capture_output=True, timeout=120,
        )
        data = json.loads(spans.read_text())
        start, end = data["window"]
        return tracing.summarise(data["spans"])["covered"] / (end - start)

    assert coverage("queries") < coverage()


def test_tail_is_a_fixed_percentile() -> None:
    assert run.tail([float(i) for i in range(100)], 90.0) == {
        "value": 89.0, "percentile": 90.0, "samples": 100, "beyond": 10,
    }
    # whole rounds of the same 8 costs: the same cost class for any count
    for rounds in (1, 2, 4, 5, 9):
        costs = [float(c) for c in range(8)] * rounds
        assert run.tail(costs, run.TAIL_PERCENTILE["edit_session"])["value"] == 5.0
        packages = [float(c) for c in range(4)] * rounds
        assert run.tail(packages, run.TAIL_PERCENTILE["check_batch"])["value"] == 3.0


def test_times_are_reported_at_the_reference_speed() -> None:
    # a run whose kernel samples took twice the reference time ran on a
    # machine half as fast: its times halve, its rates double
    machine = speed.Speed()
    machine.samples = [2 * speed.REFERENCE_S, 1.9 * speed.REFERENCE_S, 5.0]
    scale = machine.scale()
    assert scale == 0.5
    assert speed.at_reference(4.0, "s", scale) == 2.0
    assert speed.at_reference(1.0, "kloc/s", scale) == 2.0
    assert speed.at_reference(3.0, "1/s", scale) == 6.0
    assert speed.at_reference(100.0, "MB", scale) == 100.0
    assert speed.at_reference(0.5, "ratio", scale) == 0.5
