"""``repro check``: which core runs, and that the choice changes no verdict.

Without ``--traces`` a non-parametric property is solved on the flat
core over the compiled algebra; ``--traces`` (witnesses need
provenance) and parametric properties (substitution environments have
no compiled form) run on the object solver.  Every configuration must
print the same findings, and those findings must be MOPS's error nodes.
So must ``--engine demand`` (the §5 forward checker), which refuses
parametric properties.
"""

import re
from collections import Counter

import pytest

import repro.cli
import repro.modelcheck
from repro.cfg import build_cfg
from repro.core.flatcore import FlatSolver
from repro.core.solver import Solver
from repro.modelcheck import PROPERTY_FACTORIES, AnnotatedChecker, DemandChecker
from repro.mops import MopsChecker
from repro.synth import PackageSpec, generate_package

#: One violation per property, called first thing in ``main``: chroot
#: then open (chroot-jail), a double close (file-state), a double free
#: (heap-state).  The generated package adds the privilege violations.
_VIOLATIONS = """
void jail() {
  chroot("/var/empty");
  int fd = open("/etc/passwd", 0);
  close(fd);
  close(fd);
  int p = malloc(8);
  free(p);
  free(p);
}
"""

PROPERTIES = sorted(PROPERTY_FACTORIES)


@pytest.fixture(scope="module")
def package(tmp_path_factory):
    source = generate_package(PackageSpec("cli", 300, 6, seed=17))
    source = _VIOLATIONS + source.replace("int main() {", "int main() {\n  jail();", 1)
    path = tmp_path_factory.mktemp("check") / "pkg.c"
    path.write_text(source)
    return path


def _run(capsys, path, prop, *flags):
    code = repro.cli.main(
        ["check", str(path), "--property", prop, "--max-findings", "100000", *flags]
    )
    lines = capsys.readouterr().out.splitlines()
    return code, lines


def _summary(lines):
    return next(line for line in lines if line.startswith("[annotated]"))


def _findings(lines, prefix="  violation at "):
    return Counter(line[len(prefix):] for line in lines if line.startswith(prefix))


@pytest.fixture
def built_checkers(monkeypatch):
    """Record the checkers the CLI builds (their solvers tell the core)."""
    built = []

    class Recording(AnnotatedChecker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(repro.cli, "AnnotatedChecker", Recording)
    return built


@pytest.mark.parametrize("prop", PROPERTIES)
class TestDefaultCore:
    def test_traces_change_no_finding(self, package, prop, capsys):
        code, lines = _run(capsys, package, prop)
        traced_code, traced = _run(capsys, package, prop, "--traces")
        assert code == traced_code == 1
        assert _summary(lines) == _summary(traced)
        assert _findings(lines) == _findings(traced)

    def test_findings_are_mops_error_nodes(self, package, prop, capsys):
        _code, lines = _run(capsys, package, prop)
        cfg = build_cfg(package.read_text())
        mops = MopsChecker(cfg, PROPERTY_FACTORIES[prop]()).check()
        expected = Counter(node.describe() for node in mops.error_nodes)
        # Parametric findings end in their binding, e.g. " [x=fd]".
        nodes = Counter(
            re.sub(r" \[[^\]]*\]$", "", where) for where in _findings(lines)
        )
        assert nodes == expected
        code = repro.cli.main(
            ["check", str(package), "--property", prop, "--engine", "demand",
             "--max-findings", "100000"]
        )
        out, err = capsys.readouterr()
        if PROPERTY_FACTORIES[prop]().parametric_symbols:
            assert code == 2 and out == ""
            assert err.startswith("repro: error: ") and err.count("\n") == 1
        else:
            assert code == 1
            assert _findings(out.splitlines(), "  error reachable at ") == expected

    def test_core_choice(self, package, prop, capsys, built_checkers):
        _run(capsys, package, prop)
        _run(capsys, package, prop, "--traces")
        default, traced = built_checkers
        parametric = bool(PROPERTY_FACTORIES[prop]().parametric_symbols)
        assert type(default.solver) is (Solver if parametric else FlatSolver)
        assert type(traced.solver) is Solver

    @pytest.mark.parametrize("flag", ["--collapse-cycles", "--no-cycle-elim"])
    def test_solver_options_keep_verdicts(self, package, prop, flag, capsys):
        code, lines = _run(capsys, package, prop)
        flag_code, flagged = _run(capsys, package, prop, flag)
        assert code == flag_code
        assert _findings(lines) == _findings(flagged)


@pytest.mark.parametrize(
    "prop",
    [p for p in PROPERTIES if not PROPERTY_FACTORIES[p]().parametric_symbols],
)
class TestFlatPath:
    def test_verbose_reports_fixpoint_invariant(self, package, prop, capsys):
        _code, lines = _run(capsys, package, prop, "-v")
        assert "  fixpoint invariant: redundant_compositions == 0 [OK]" in lines

    def test_budget_interrupts(self, package, prop, capsys):
        for engine in ("annotated", "demand"):
            code, _lines = _run(
                capsys, package, prop, "--engine", engine, "--budget-steps", "1"
            )
            assert code == 3, engine

    def test_demand_without_cycle_elim(self, package, prop, capsys, monkeypatch):
        built = []

        class Recording(DemandChecker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.modelcheck, "DemandChecker", Recording)
        code, lines = _run(capsys, package, prop, "--engine", "demand")
        flag_code, flagged = _run(
            capsys, package, prop, "--engine", "demand", "--no-cycle-elim"
        )
        assert [checker.solver.cycle_elim for checker in built] == [True, False]
        assert code == flag_code == 1
        assert lines == flagged


def test_flat_flag_is_gone(package, capsys):
    with pytest.raises(SystemExit) as exc:
        repro.cli.main(
            ["check", str(package), "--property", "full-privilege", "--flat"]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --flat" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("check", ["--shards", "2"]),
        ("check", ["--partition", "greedy"]),
        ("serve", ["--shards", "2"]),
        ("serve", ["--partition", "greedy"]),
    ],
    ids=["check-shards", "check-partition", "serve-shards", "serve-partition"],
)
def test_shard_flags_are_gone(package, capsys, command, flag):
    """``check`` and ``serve`` have no sharding flags: argparse rejects them."""
    argv = [command, *flag]
    if command == "check":
        argv = [command, str(package), "--property", "full-privilege", *flag]
    with pytest.raises(SystemExit) as exc:
        repro.cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestFrontEnd:
    """Source-level details the findings and diagnostics depend on."""

    def test_lines_after_continued_string(self, tmp_path, capsys):
        path = tmp_path / "log.c"
        path.write_text(
            'int main() {\n  log("started \\\n  now");\n  seteuid(0);\n'
            '  system("sh");\n  return 0;\n}\n'
        )
        code, lines = _run(capsys, path, "full-privilege")
        assert code == 1
        assert _findings(lines) == Counter(["main:5", "main:6", "main:exit"])

    def test_octal_file_mode(self, tmp_path, capsys):
        path = tmp_path / "mode.c"
        path.write_text("int main() { mode = 0755; chmod(mode); umask(022); return 0; }\n")
        code, lines = _run(capsys, path, "simple-privilege")
        assert code == 0
        assert _summary(lines).startswith("[annotated] clean")

    def test_invalid_octal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int main() {\n  x = 08;\n}\n")
        assert repro.cli.main(["check", str(path), "--property", "simple-privilege"]) == 2
        err = capsys.readouterr().err
        assert err == "repro: error: line 2: invalid integer literal '08'\n"

    @pytest.mark.parametrize("engine", ["annotated", "demand", "both"])
    def test_continue_runs_the_for_step(self, tmp_path, capsys, engine):
        # C runs the step before the next test: ``continue`` reaches
        # seteuid(0), so the loop can exit to execl privileged.
        path = tmp_path / "for.c"
        path.write_text(
            "int main() { int i; for (i = 0; i < 3; seteuid(0)) "
            '{ if (i) continue; return 0; } execl("/bin/sh"); return 0; }\n'
        )
        code = repro.cli.main(
            ["check", str(path), "--property", "simple-privilege", "--engine", engine]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "clean" not in out

    @pytest.mark.parametrize(
        "command",
        [
            ["check", "--property", "simple-privilege"],
            ["check", "--property", "simple-privilege", "--engine", "demand"],
            ["check", "--property", "simple-privilege", "--engine", "both"],
            ["dataflow", "--track", "seteuid", "--"],
        ],
        ids=["check", "check-demand", "check-both", "dataflow"],
    )
    def test_program_without_main_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "lib.c"
        path.write_text("int f() { return 0; }\n")
        assert repro.cli.main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro: error: program has no main function\n"


class TestMopsExitStatus:
    """``--engine mops`` exits on MOPS's own verdict, without re-solving."""

    @pytest.fixture(autouse=True)
    def no_annotated_checker(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("--engine mops built an AnnotatedChecker")

        monkeypatch.setattr(repro.cli, "AnnotatedChecker", refuse)

    def _check(self, tmp_path, source):
        path = tmp_path / "prog.c"
        path.write_text(source)
        return repro.cli.main(
            ["check", str(path), "--property", "simple-privilege", "--engine", "mops"]
        )

    def test_vulnerable_exits_1(self, tmp_path, capsys):
        code = self._check(
            tmp_path,
            'int main() { seteuid(0); if (c) { seteuid(getuid()); } '
            'execl("/bin/sh", 0); return 0; }',
        )
        assert code == 1
        assert "[mops]      VIOLATION" in capsys.readouterr().out

    def test_clean_exits_0(self, tmp_path, capsys):
        code = self._check(
            tmp_path,
            'int main() { seteuid(0); seteuid(getuid()); execl("/x", 0); }',
        )
        assert code == 0
        assert "[mops]      clean" in capsys.readouterr().out


_SETEUID_EXEC = 'int main() { seteuid(0); execl("/bin/sh"); return 0; }'


@pytest.mark.parametrize(
    "engine, flags, named",
    [
        ("demand", ["--traces"], "--traces"),
        ("demand", ["-v"], "--verbose"),
        ("demand", ["--collapse-cycles"], "--collapse-cycles"),
        ("mops", ["--traces"], "--traces"),
        ("mops", ["--verbose"], "--verbose"),
        ("mops", ["--collapse-cycles"], "--collapse-cycles"),
        ("mops", ["--no-cycle-elim"], "--no-cycle-elim"),
        ("mops", ["--budget-steps", "1"], "--budget-steps"),
        ("mops", ["--budget-seconds", "5"], "--budget-seconds"),
        # the annotated half of ``both`` reads every one of them
        ("both", ["--traces", "-v", "--collapse-cycles", "--no-cycle-elim"], None),
    ],
)
def test_flags_an_engine_does_not_read_are_refused(
    tmp_path, capsys, engine, flags, named
):
    path = tmp_path / "prog.c"
    path.write_text(_SETEUID_EXEC)
    code = repro.cli.main(
        ["check", str(path), "--property", "simple-privilege", "--engine", engine,
         *flags]
    )
    out = capsys.readouterr()
    if named is None:
        assert code == 1
        assert "[annotated] VIOLATION" in out.out
        return
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("repro: error: ")
    assert named in out.err and engine in out.err
    assert len(out.err.splitlines()) == 1


def test_traced_output_is_the_same_under_every_hash_seed(tmp_path):
    # The first derivation recorded for a nested fact is the printed
    # witness; it must follow the solve, not the string-hash seed.
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = tmp_path / "pkg.c"
    path.write_text(generate_package(PackageSpec("det", 300, 6, seed=17)))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "check", str(path),
             "--property", "simple-privilege", "--traces",
             "--max-findings", "100000"],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1, done.stderr
        outputs.append(done.stdout)
    assert "      " in outputs[0]  # witnesses were printed
    assert outputs[0] == outputs[1]


def test_closed_stdout_ends_quietly_with_sigpipe_status(package):
    # `repro check … | head -3`: once the reader has gone, the command
    # stops with 128 + SIGPIPE and writes nothing to stderr — no error
    # line, no "Exception ignored" from the interpreter's exit flush.
    # The traced output (about 150 KB) overflows the pipe's buffer, so
    # the command is still writing when the reader closes.
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "check", str(package),
         "--property", "simple-privilege", "--traces",
         "--max-findings", "100000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == repro.cli.EXIT_BROKEN_PIPE == 141
    assert err == b""
    assert head[0].startswith(b"[annotated] VIOLATION")
