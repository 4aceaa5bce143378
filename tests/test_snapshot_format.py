"""Snapshot format v4: round trips, deterministic bytes, and refusals.

* **Round-trip oracle** — object and flat cores × cycle elimination
  on/off × fixpoint and checkpoint dumps: a loaded snapshot has the
  dumped system's canonical facts and fact count, a loaded checkpoint
  resumes to the cold fixpoint, and each core loads the other's dumps.
* **Inconsistent fixpoints** — a dump of a system with no solution
  reloads, into either core, with the same inconsistencies, and their
  meets stay in the memo.
* **Deterministic bytes** — one package dumps to the same bytes under
  different string-hash seeds.
* **Compatibility fixtures** — ``tests/fixtures/v4_object.json`` is a
  fixpoint dump of :func:`object_system` and
  ``tests/fixtures/v4_flat_checkpoint.json`` a checkpoint of
  :func:`flat_checkpoint_system`, both committed files in the one
  format that loads, so a loader change that stops existing snapshot
  files from loading fails here.  ``tests/fixtures/snapshot_forms.json``
  records the canonical form (:func:`canonical_form`) each loads to,
  and the checkpoint's fixpoint.  Running this module as a script
  rewrites the three files with the importable ``dump_solver``.
* **Tampering** — malformed rows and every format but version 4 raise
  the ``ValueError`` the service's cold-solve fallback catches.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotations import CompiledMonoidAlgebra, MonoidAlgebra
from repro.core.budget import Budget
from repro.core.errors import SolverInterrupted
from repro.core.flatcore import FlatSolver
from repro.core.persist import FORMAT_VERSION, dump_solver, load_solver
from repro.core.solver import Solver
from repro.core.terms import Constructor, Variable, constant
from repro.dfa.gallery import privilege_machine
from tests.test_flatcore import _random_constraints

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def object_system() -> Solver:
    """A small object-annotated fixpoint with every fact kind.

    It has a constructor meet, a projection, a contravariant constructor
    and a cycle with a non-identity edge, but no identity cycle: its
    stored and canonical solved forms coincide.
    """
    algebra = MonoidAlgebra(privilege_machine())
    solver = Solver(algebra)
    o = Constructor("o1", 1)
    ref = Constructor("ref", 2, variance=(True, False))
    a, b, c, d, e, g, h = (Variable(name) for name in "ABCDEGH")
    solver.add(constant("pc"), a, algebra.word(["seteuid_zero"]))
    solver.add(o(a), b)
    solver.add(b, c, algebra.word(["execl"]))
    solver.add(o.proj(1, c), d)
    solver.add(d, e)
    solver.add(e, d, algebra.word(["seteuid_nonzero"]))
    solver.add(b, o(g))
    solver.add(ref(g, h), c)
    return solver


def flat_checkpoint_system() -> tuple[CompiledMonoidAlgebra, list[tuple], Budget]:
    """Constraints with an identity cycle, a meet and a projection, and
    the step budget that interrupts the flat core partway through them."""
    algebra = CompiledMonoidAlgebra(privilege_machine())
    o = Constructor("o1", 1)
    p, q, r, s, t, u, w = (Variable(name) for name in "PQRSTUW")
    zero, execl, nonzero = (
        algebra.word([symbol])
        for symbol in ("seteuid_zero", "execl", "seteuid_nonzero")
    )
    idk = algebra.identity_index
    constraints = [
        (constant("pc"), p, zero),
        (constant("k"), q, nonzero),
        (p, q, idk),
        (q, r, idk),
        (r, p, idk),
        (o(p), s, idk),
        (s, t, execl),
        (o.proj(1, t), u, idk),
        (u, w, idk),
        (w, u, nonzero),
        (s, o(w), idk),
    ]
    return algebra, constraints, Budget(max_steps=9, check_interval=1)


def canonical_form(solver) -> list[str]:
    """The canonical solved form as sorted lines, one per fact, with
    each annotation spelled as its state mapping."""
    algebra = solver.algebra
    decode = algebra.decode if isinstance(algebra, CompiledMonoidAlgebra) else None

    def spell(ann) -> str:
        fn = decode(ann) if decode is not None else ann
        return "".join(str(state) for state in fn.mapping)

    lines = []
    for fact in solver.canonical_facts():
        if fact[0] == "proj":
            _kind, var, ctor, index, target, ann = fact
            lines.append(f"proj {var} {ctor.name}^-{index} {target} {spell(ann)}")
        else:
            kind, var, other, ann = fact
            lines.append(f"{kind} {var} {other} {spell(ann)}")
    return sorted(lines)


def _interrupted_flat() -> FlatSolver:
    algebra, constraints, budget = flat_checkpoint_system()
    flat = FlatSolver(algebra, budget=budget)
    with pytest.raises(SolverInterrupted):
        flat.add_many(constraints)
    return flat


def _cold_flat() -> FlatSolver:
    algebra, constraints, _budget = flat_checkpoint_system()
    cold = FlatSolver(algebra)
    cold.add_many(constraints)
    return cold


def _forms() -> dict:
    return json.loads((FIXTURES / "snapshot_forms.json").read_text())


# -- round-trip oracle ---------------------------------------------------------

CORES = {"object": Solver, "flat": FlatSolver}


def _solved(core: str, seed: int, cycle_elim: bool, checkpoint: bool):
    algebra, constraints = _random_constraints(seed, genkill=False)
    budget = Budget(max_steps=3 + seed % 7, check_interval=1) if checkpoint else None
    solver = CORES[core](algebra, cycle_elim=cycle_elim, budget=budget)
    try:
        solver.add_many(constraints)
    except SolverInterrupted:
        pass
    solver.budget = None
    return solver, algebra, constraints


def _as_core(text: str, core: str) -> str:
    data = json.loads(text)
    data["core"] = core
    return json.dumps(data)


class TestRoundTripOracle:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.sampled_from(sorted(CORES)),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_load_of_dump_is_the_same_system(self, seed, core, cycle_elim, checkpoint):
        solver, algebra, constraints = _solved(core, seed, cycle_elim, checkpoint)
        text = dump_solver(solver)
        assert json.loads(text)["version"] == 4
        cold = CORES[core](algebra, cycle_elim=cycle_elim)
        cold.add_many(constraints)
        for target in CORES:
            loaded = load_solver(_as_core(text, target))
            assert isinstance(loaded, CORES[target])
            assert loaded.pending_count() == solver.pending_count()
            assert set(loaded.canonical_facts()) == set(solver.canonical_facts())
            assert loaded.fact_count() == solver.fact_count()
            if target == core:
                assert loaded.variables() >= solver.variables()
            loaded.resume()
            assert set(loaded.canonical_facts()) == set(cold.canonical_facts())
            assert loaded.fact_count() == cold.fact_count()

    def test_redump_of_a_load_is_byte_identical(self):
        for seed in range(20):
            for core in CORES:
                solver, _algebra, _constraints = _solved(core, seed, True, False)
                text = dump_solver(solver)
                assert dump_solver(load_solver(text)) == text, (seed, core)


class TestInconsistentFixpoint:
    """A fixpoint with no solution reloads with its inconsistencies."""

    @pytest.mark.parametrize("core", sorted(CORES))
    def test_round_trip_keeps_the_inconsistencies(self, core):
        algebra = CompiledMonoidAlgebra(privilege_machine())
        x, z = Variable("X"), Variable("Z")
        solver = CORES[core](algebra)
        solver.add(constant("c"), x)
        sections = {"pending", "met", "inconsistencies"}
        assert not sections & json.loads(dump_solver(solver)).keys()
        solver.add(x, constant("d"))
        assert not solver.is_consistent
        for target in CORES:
            loaded = load_solver(_as_core(dump_solver(solver), target))
            assert loaded.inconsistencies == solver.inconsistencies
            # The meet is in the reloaded memo, so deriving it again,
            # directly or through a new variable, records nothing new.
            loaded.add(x, constant("d"))
            loaded.add(x, z)
            loaded.add(z, constant("d"))
            assert loaded.inconsistencies == solver.inconsistencies


# -- deterministic bytes ---------------------------------------------------------

_DUMP_SCRIPT = """
import hashlib
from repro.cfg import build_cfg
from repro.core.annotations import CompiledMonoidAlgebra
from repro.core.persist import dump_solver
from repro.modelcheck import PROPERTY_FACTORIES, AnnotatedChecker
from repro.synth.programs import PackageSpec, generate_package

prop = PROPERTY_FACTORIES["simple-privilege"]()
cfg = build_cfg(generate_package(PackageSpec("hashseed", 300, 6, seed=3)))
for flat in (False, True):
    checker = AnnotatedChecker(
        cfg, prop, algebra=CompiledMonoidAlgebra(prop.machine),
        record_reasons=False, flat=flat,
    )
    assert checker.solver.stats.vars_merged > 0
    text = dump_solver(checker.solver)
    print(hashlib.sha256(text.encode("utf-8")).hexdigest())
"""


def test_dump_bytes_do_not_depend_on_the_hash_seed():
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", _DUMP_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


# -- compatibility fixtures --------------------------------------------------------


class TestCompatibilityFixtures:
    def test_v4_object_loads_to_its_recorded_form(self):
        text = (FIXTURES / "v4_object.json").read_text()
        assert json.loads(text)["version"] == FORMAT_VERSION
        recorded = _forms()["v4_object"]
        loaded = load_solver(text)
        assert isinstance(loaded, Solver)
        assert isinstance(loaded.algebra, MonoidAlgebra)
        assert canonical_form(loaded) == recorded["canonical"]
        assert loaded.fact_count() == recorded["fact_count"]
        assert canonical_form(object_system()) == recorded["canonical"]

    def test_v4_flat_checkpoint_reaches_cold_fixpoint(self):
        text = (FIXTURES / "v4_flat_checkpoint.json").read_text()
        data = json.loads(text)
        assert data["version"] == FORMAT_VERSION and data["core"] == "flat"
        assert data["merged"] and data["pending"] and data["met"]
        names = [Variable(name) for name in data["variables"]]
        it = iter(data["merged"])
        merged = [(names[loser], names[rep]) for loser, rep in zip(it, it)]
        recorded = _forms()["v4_flat_checkpoint"]
        cold = canonical_form(_cold_flat())
        assert recorded["fixpoint"] == cold
        for core in CORES:
            loaded = load_solver(_as_core(text, core))
            assert isinstance(loaded, CORES[core])
            assert loaded.pending_count() == recorded["pending"]
            assert canonical_form(loaded) == recorded["canonical"]
            for loser, rep in merged:
                assert loaded.find(loser) == rep
            loaded.resume()
            assert loaded.pending_count() == 0
            assert canonical_form(loaded) == cold

    def test_checkpoint_fixture_matches_todays_interrupted_solve(self):
        recorded = _forms()["v4_flat_checkpoint"]
        flat = _interrupted_flat()
        assert canonical_form(flat) == recorded["canonical"]
        assert flat.pending_count() == recorded["pending"]


# -- tampering -------------------------------------------------------------------


class TestTampering:
    """Malformed rows raise ``ValueError``, which the service treats as
    a stale snapshot and answers with a cold solve.  Swapped machines
    (``tests/test_persist.py``) and damaged files (``tests/test_faults.py``)
    are covered where they were before."""

    def test_ragged_rows_are_refused(self):
        data = json.loads(dump_solver(object_system()))
        data["lowers"] = data["lowers"][:-1]
        with pytest.raises(ValueError, match="lowers"):
            load_solver(json.dumps(data))

    def test_unknown_pending_kind_is_refused(self):
        data = json.loads(dump_solver(_interrupted_flat()))
        data["pending"][0] = 9
        with pytest.raises(ValueError, match="pending"):
            load_solver(json.dumps(data))

    @pytest.mark.parametrize("version", [1, 2, 3, 5])
    def test_other_versions_are_refused(self, version):
        data = json.loads(dump_solver(object_system()))
        data["version"] = version
        with pytest.raises(ValueError, match=f"unsupported dump version {version}"):
            load_solver(json.dumps(data))


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    FIXTURES.mkdir(exist_ok=True)
    solver = object_system()
    (FIXTURES / "v4_object.json").write_text(dump_solver(solver) + "\n")
    flat = _interrupted_flat()
    (FIXTURES / "v4_flat_checkpoint.json").write_text(dump_solver(flat) + "\n")
    forms = {
        "v4_object": {
            "canonical": canonical_form(solver),
            "fact_count": solver.fact_count(),
        },
        "v4_flat_checkpoint": {
            "canonical": canonical_form(flat),
            "pending": flat.pending_count(),
            "fixpoint": canonical_form(_cold_flat()),
        },
    }
    (FIXTURES / "snapshot_forms.json").write_text(json.dumps(forms, indent=1) + "\n")
