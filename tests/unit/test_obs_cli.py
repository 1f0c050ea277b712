"""Unit tests: the ``python -m repro.obs`` CLI (small scales throughout)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.obs.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
DATA = Path(__file__).parent / "data"

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
        assert "q-error" in out
        assert "qerror_geomean" in out

    def test_audit_saved_trace(self, tmp_path, capsys):
        assert main(["trace", "--query", "q1", "--out", str(tmp_path), *SCALE]) == 0
        capsys.readouterr()
        trace_file = tmp_path / "q1.trace.jsonl"
        assert main(["audit", "--input", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert str(trace_file) in out
        assert "terminal                 finished" in out
        # Every estimator replayed from the file, one row each.
        names = [line.split()[0] for line in out.splitlines()[-5:]]
        assert names == ["paper", "dne", "tgn", "history", "ensemble"]

    def test_committed_golden_replays(self, capsys):
        assert main(["audit", "--input", str(DATA / "obs_golden.trace.jsonl")]) == 0
        assert "scored                   True" in capsys.readouterr().out

    def test_trace_without_query_finished_is_not_scored(self, tmp_path, capsys):
        """No traceback: the report table, one line, exit 1."""
        lines = (DATA / "obs_golden.trace.jsonl").read_text().splitlines()
        kept = [line for line in lines if '"query_finished"' not in line]
        assert len(kept) == len(lines) - 1
        trace_file = tmp_path / "unfinished.trace.jsonl"
        trace_file.write_text("\n".join(kept) + "\n")
        assert main(["audit", "--input", str(trace_file)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "not scored: unterminated"
        assert out[-3].split() == ["10.0", "53.8", "26.0", "2.0", "6.0", "-", "-"]

    def test_shed_trace_is_not_scored(self, capsys):
        golden = DATA / "obs_golden_service.trace.jsonl"
        assert main(["audit", "--input", str(golden)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "not scored: shed"

    def test_removed_kind_exits_two(self, tmp_path, capsys):
        trace_file = tmp_path / "old.trace.jsonl"
        trace_file.write_text('{"kind": "execution_started", "t": 0.0}\n')
        assert main(["audit", "--input", str(trace_file)]) == 2
        err = capsys.readouterr().err
        assert "unknown trace event kind 'execution_started'" in err


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

    def test_no_estimator_flag(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["leaderboard", "--estimator", "paper"])
        assert exc.value.code == 2

    def test_list_prints_the_grid(self, capsys):
        assert main(["leaderboard", "--grid", "tier1", "--list"]) == 0
        out = capsys.readouterr().out
        assert "40 variant(s)" in out
        assert "xs-uniform-scan-full" in out
        capsys.readouterr()
        assert main(["leaderboard", "--grid", "full", "--list"]) == 0
        assert "336 variant(s)" in capsys.readouterr().out

    def test_prints_without_writing_a_file(self, tmp_path, capsys, monkeypatch):
        # The committed board is the registry's: a CLI run must not touch
        # benchmarks/results/ (relative to any cwd) unless asked to.
        _one_variant_grid(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert main(["leaderboard", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "leaderboard: grid=tier1 cells=1 estimator=ensemble" in out
        assert "written" not in out
        assert list(tmp_path.iterdir()) == []

    def test_out_saves_the_board(self, tmp_path, capsys, monkeypatch):
        _one_variant_grid(monkeypatch)
        path = tmp_path / "board.json"
        assert main(["leaderboard", "--quiet", "--out", str(path)]) == 0
        assert f"leaderboard written: {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert [c["name"] for c in doc["cells"]] == ["xs-uniform-scan-half"]


def _one_variant_grid(monkeypatch) -> None:
    from repro.workloads import grid

    variant = grid.variants_by_name()["xs-uniform-scan-half"]
    monkeypatch.setattr(grid, "resolve_grid", lambda name: [variant])


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
