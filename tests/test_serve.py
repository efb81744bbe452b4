"""The ``python -m repro serve`` session REPL (platform/serve.py).

One serve process = one MiningSession: repeated query lines must be
warm (served from the session cache), ``suite`` lines must write the
standard artifacts through the very same session, and malformed lines
must fail the request — not the session — and surface in the exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import urllib.request

import pytest

from repro.__main__ import main
from repro.platform.serve import serve_main


def _serve(script: str, *flags: str) -> int:
    return serve_main(list(flags), stdin=io.StringIO(script))


class TestServe:
    def test_repeated_query_is_warm(self, capsys):
        code = _serve(
            "query tc sc-ht-mini backend=bitset\n"
            "query tc sc-ht-mini backend=bitset\n"
            "quit\n"
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("tc on")]
        assert len(lines) == 2
        # Cold then warm: the second line reports hits and zero misses.
        assert "0m)" not in lines[0]
        assert lines[1].endswith("0m)")
        assert "session closing: 2 query(ies)" in out

    def test_suite_command_runs_plan_through_the_session(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        code = _serve(
            "suite --smoke\n"
            "stats\n"
            "quit\n"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Experiment suite" in out
        artifact = tmp_path / "suite_sc-ht-mini.json"
        assert artifact.exists()
        assert json.loads(artifact.read_text())["schema"] == "gms-suite/v2"
        # The stats dump reflects the plan's traffic on the one session.
        stats = json.loads(out[out.index("{"):out.rindex("}") + 1])
        assert stats["plans"] == 1
        assert stats["cache"]["hits"] > 0

    def test_bad_lines_fail_the_exit_code_not_the_session(self, capsys):
        code = _serve(
            "bogus\n"
            "query tc\n"               # missing dataset
            "query tc nope-dataset\n"  # unknown dataset
            "query tc sc-ht-mini backend=bitset\n"
            "quit\n"
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 3
        # The good query after the bad ones was still served.
        assert "tc on sc-ht-mini" in captured.out

    def test_warm_and_introspection_commands(self, capsys):
        code = _serve(
            "warm sc-ht-mini bitset\n"
            "datasets\nkernels\nhelp\n"
            "query 4clique sc-ht-mini backend=bitset ordering=degeneracy\n"
            "quit\n"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warmed sc-ht-mini" in out
        assert "sc-ht-mini" in out and "kclique" in out
        # The warm command pre-materialized: the query reports no misses.
        (line,) = [l for l in out.splitlines() if l.startswith("4clique on")]
        assert line.endswith("0m)")

    def test_bad_suite_flags_survive_the_session(self, capsys):
        # argparse SystemExit from a bad suite line must fail the request,
        # not tear down the long-lived session.
        code = _serve(
            "suite --bogus-flag\n"
            "query tc sc-ht-mini backend=bitset\n"
            "quit\n"
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "could not parse suite flags" in captured.err
        assert "tc on sc-ht-mini" in captured.out
        assert "session closing" in captured.out

    def test_eof_closes_cleanly(self, capsys):
        assert _serve("query tc sc-ht-mini\n") == 0
        assert "session closing" in capsys.readouterr().out

    def test_wired_into_the_driver(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "serve" in capsys.readouterr().out

    def test_driver_forwards_to_serve(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        assert main(["serve", "--no-prompt"]) == 0
        assert "session ready" in capsys.readouterr().out


class TestServeDiagnostics:
    def test_request_failure_logs_traceback_at_debug(self, caplog, capsys):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro.platform.serve"):
            code = _serve("query tc no-such-dataset\nquit\n")
        assert code == 1
        # One line for the operator on stderr...
        assert "error:" in capsys.readouterr().err
        # ...and the full traceback in the DEBUG log.
        failures = [r for r in caplog.records
                    if "request failed" in r.message]
        assert failures and all(r.exc_info for r in failures)

    def test_closing_stats_survive_missing_worker_caches(
        self, monkeypatch, capsys
    ):
        # A stats dict with no worker_caches key (older/stubbed session)
        # must not crash the closing line.
        from repro.platform.session import MiningSession

        original = MiningSession.stats

        def stripped(self):
            stats = original(self)
            stats.pop("worker_caches", None)
            return stats

        monkeypatch.setattr(MiningSession, "stats", stripped)
        code = _serve("query tc sc-ht-mini backend=bitset\nquit\n")
        assert code == 0
        out = capsys.readouterr().out
        assert "session closing: 1 query(ies)" in out
        assert "worker caches" not in out


def _child_pids(pid: int) -> list:
    """Direct children of *pid*, whichever of its threads forked them."""
    children = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            children += [int(c) for c in fh.read().split()]
    return children


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="reads child processes from /proc")
class TestServeHttpShutdown:
    def test_sigterm_closes_the_session_and_its_pool(self, tmp_path):
        repo = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--http", "0",
             "--workers", "2", "--job-root", str(tmp_path / "jobs")],
            cwd=tmp_path, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        workers: list = []
        try:
            banner = proc.stdout.readline()
            port = int(banner.split()[3].rsplit(":", 1)[1])
            body = json.dumps({"kernel": "tc", "dataset": "sc-ht-mini",
                               "backend": "bitset"}).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/query", data=body, method="POST")
            with urllib.request.urlopen(request, timeout=120) as response:
                assert json.load(response)["result"]["value"] > 0
            # The query ran on the pool, so its workers are alive now.
            workers = _child_pids(proc.pid)
            assert len(workers) >= 2
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
            # session.close() joined every worker before the server exited.
            survivors = [pid for pid in workers
                         if os.path.exists(f"/proc/{pid}")]
        finally:
            # Never leak processes, even when an assertion above failed
            # (orphans would also hold the output pipes open).
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            if proc.poll() is None:
                proc.kill()
            out, err = proc.communicate()
        assert survivors == []
        assert proc.returncode == 0, err
        assert "interrupted; shutting down" in out
