"""Unit tests: the ``python -m repro.obs`` CLI (small scales throughout)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.obs.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

SCALE = ["--scale", "0.002"]


class TestTraceCommand:
    def test_trace_q1_exports_and_reports_coverage(self, tmp_path, capsys):
        assert main(["trace", "--query", "q1", "--out", str(tmp_path), *SCALE]) == 0
        out = capsys.readouterr().out
        assert "events recorded" in out
        assert "span coverage   : 100.0%" in out
        assert (tmp_path / "q1.trace.jsonl").exists()
        doc = json.loads((tmp_path / "q1.trace.json").read_text())
        assert any(e.get("cat") == "query" for e in doc["traceEvents"])

    def test_trace_adhoc_sql(self, tmp_path, capsys):
        code = main([
            "trace", "--sql", "select count(*) from customer",
            "--out", str(tmp_path), *SCALE,
        ])
        assert code == 0
        assert (tmp_path / "adhoc.trace.jsonl").exists()

    def test_unknown_query_exits_two(self, capsys):
        assert main(["trace", "--query", "q9"]) == 2
        assert "unknown query" in capsys.readouterr().err


class TestAuditCommand:
    def test_audit_fresh_run(self, capsys):
        assert main(["audit", "--query", "q1", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "|error|" in out
        assert "remaining-time error" in out

    def test_audit_saved_trace(self, tmp_path, capsys):
        assert main(["trace", "--query", "q1", "--out", str(tmp_path), *SCALE]) == 0
        capsys.readouterr()
        trace_file = tmp_path / "q1.trace.jsonl"
        assert main(["audit", "--input", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert str(trace_file) in out
        assert "query elapsed" in out


class TestMetricsCommand:
    def test_metrics_dump(self, capsys):
        assert main(["metrics", "--query", "q1", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "io.reads.seq" in out
        assert "reports.emitted" in out
        assert "Segment spans" in out


class TestLeaderboardCommand:
    def test_help_lists_every_subcommand(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("trace", "audit", "metrics", "leaderboard"):
            assert sub in out, sub

    def test_list_prints_the_grid(self, capsys):
        assert main(["leaderboard", "--grid", "tier1", "--list"]) == 0
        out = capsys.readouterr().out
        assert "40 variant(s)" in out
        assert "xs-uniform-scan-full" in out
        capsys.readouterr()
        assert main(["leaderboard", "--grid", "full", "--list"]) == 0
        assert "336 variant(s)" in capsys.readouterr().out

    def test_check_against_explicit_baseline(self, tmp_path, capsys, monkeypatch):
        # Score a persisted board against itself: always a PASS.
        from repro.obs.observatory import run_leaderboard, write_leaderboard
        from repro.workloads.grid import variants_by_name

        variants = [variants_by_name()["xs-uniform-scan-half"]]
        board = run_leaderboard(variants, "small")
        path = tmp_path / "board.json"
        write_leaderboard(board, path)

        code = main([
            "leaderboard", "--current", str(path),
            "--check", "--baseline", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "gate: PASS" in out

    def test_check_without_baseline_exits_two(self, tmp_path, capsys):
        from repro.obs.observatory import run_leaderboard, write_leaderboard
        from repro.workloads.grid import variants_by_name

        variants = [variants_by_name()["xs-uniform-scan-half"]]
        write_leaderboard(
            run_leaderboard(variants, "small"), tmp_path / "board.json"
        )
        code = main([
            "leaderboard", "--current", str(tmp_path / "board.json"),
            "--check", "--baseline", str(tmp_path / "missing.json"),
        ])
        assert code == 2
        assert "baseline not found" in capsys.readouterr().err


class TestClosedStdout:
    def test_reader_going_away_is_not_a_traceback(self):
        """``python -m repro.obs ... | head`` ends quietly, not in a
        BrokenPipeError traceback (nor one from the exit-time flush)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.obs", "leaderboard", "--list",
             "--grid", "full"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        proc.stdout.close()  # the reader is gone before the first write
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "BrokenPipeError" not in stderr and "Traceback" not in stderr
