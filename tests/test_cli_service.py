"""Tests for CLI error handling, --version, and the query/serve commands."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main

VULNERABLE = """
int main() {
  seteuid(0);
  execl("/bin/sh");
  return 0;
}
"""

FIG11 = """
pair(y : int) : b = (1@A, y@Y)@P;
main() : int = (pair^i(2@B)).2@V;
"""


class TestErrorHandling:
    def test_missing_file_exits_2(self, capsys):
        code = main(["check", "/no/such/file.c", "--property", "simple-privilege"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1  # one line, no traceback
        assert "Traceback" not in err

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        code = main(["check", str(bad), "--property", "simple-privilege"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "Traceback" not in err

    def test_flow_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.flow"
        bad.write_text("main() : int = $$$;")
        code = main(["flow", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("repro: error:")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestQueryCommand:
    def test_in_process_check(self, tmp_path, capsys):
        source = tmp_path / "p.c"
        source.write_text(VULNERABLE)
        code = main(["query", "check", str(source), "--property", "simple-privilege"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["has_violation"] is True
        assert result["property"] == "simple-privilege"

    def test_in_process_flow_what_if(self, tmp_path, capsys):
        source = tmp_path / "p.flow"
        source.write_text(FIG11)
        code = main(
            [
                "query", "flow", str(source),
                "--flow-query", "A", "V",
                "--assume", "A:B",
            ]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["flows"] is True
        assert result["assume"] == [["A", "B"]]

    def test_in_process_stats(self, capsys):
        assert main(["query", "stats"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert "counters" in result and "solver" in result

    def test_check_requires_property(self, tmp_path, capsys):
        source = tmp_path / "p.c"
        source.write_text(VULNERABLE)
        assert main(["query", "check", str(source)]) == 2
        assert "property" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["query", "check", "/no/such.c", "--property", "simple-privilege"]) == 2

    def test_unreachable_server_exits_2(self, tmp_path, capsys):
        source = tmp_path / "p.c"
        source.write_text(VULNERABLE)
        code = main(
            [
                "query", "check", str(source),
                "--property", "simple-privilege",
                "--connect", "127.0.0.1:1",  # nothing listens on port 1
            ]
        )
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestQueryAgainstServer:
    def test_round_trip_over_tcp(self, tmp_path, capsys):
        from repro.service import AnalysisServer

        server = AnalysisServer(workers=2)
        host, port = server.start_tcp()
        try:
            source = tmp_path / "p.c"
            source.write_text(VULNERABLE)
            address = f"{host}:{port}"
            for _ in range(2):
                code = main(
                    [
                        "query", "check", str(source),
                        "--property", "simple-privilege",
                        "--connect", address,
                    ]
                )
                assert code == 0
            capsys.readouterr()  # drop the check output
            assert main(["query", "stats", "--connect", address]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["counters"]["cache.solve.hits"] >= 1
        finally:
            server.close()


class TestServeProcessPool:
    def test_answers_then_stops_on_sigterm(self):
        """``serve --process-pool`` end to end: start, answer, SIGTERM."""
        from repro.service import ServiceClient

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--tcp", "127.0.0.1:0",
                "--process-pool", "--workers", "1",
                "--preload", "full-privilege",
            ],
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            port = None
            deadline = time.time() + 30
            while port is None and time.time() < deadline:
                line = proc.stderr.readline()
                if not line:
                    break
                if "listening on" in line:
                    address = line.split("listening on", 1)[1].split()[0]
                    port = int(address.rsplit(":", 1)[1])
            assert port is not None, "server never reported its port"
            with ServiceClient("127.0.0.1", port) as client:
                result = client.check(VULNERABLE, "full-privilege")
            assert result["has_violation"] is True
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0
        assert "repro service stopped" in proc.stderr.read()
