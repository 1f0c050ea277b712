"""Unit tests: the ``repro-analyze`` / ``python -m repro.analysis`` CLI.

Covers the subcommands and their exit codes, and the console-script
entry point registered in ``pyproject.toml``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import (
    SYNTHETIC_STATEMENTS,
    _synthetic_database,
    build_parser,
    main,
)
from repro.analysis.invariants import collect_nodes
from repro.bench.perf import SHAPE_TEMPLATES
from repro.planner.physical import SortNode
from repro.storage.types import INTEGER, StringType

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def fixture_tree(tmp_path):
    """A lintable tree containing one violation of every rule."""
    core = tmp_path / "core"
    core.mkdir()
    (core / "clock.py").write_text("import time\nt = time.time()\n")
    (core / "eq.py").write_text("done = progress == 1.0\n")
    (core / "defaults.py").write_text("def f(a=[]):\n    return a\n")
    storage = tmp_path / "storage"
    storage.mkdir()
    (storage / "layering.py").write_text("import repro.core.segments\n")
    return tmp_path


class TestLintCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "no problems found" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, fixture_tree, capsys):
        assert main(["lint", str(fixture_tree)]) == 1
        out = capsys.readouterr().out
        for rule in ("REPRO110", "REPRO002", "REPRO003", "REPRO004"):
            assert rule in out

    def test_rule_filter(self, fixture_tree, capsys):
        assert main(["lint", "--rule", "REPRO004", str(fixture_tree)]) == 1
        out = capsys.readouterr().out
        assert "REPRO004" in out
        assert "REPRO110" not in out

    def test_unknown_rule_exits_two(self, fixture_tree, capsys):
        assert main(["lint", "--rule", "REPRO999", str(fixture_tree)]) == 2

    def test_shipped_tree_exits_zero(self, shipped_lint):
        assert shipped_lint == (0, "no problems found\n")


class TestNothingToAnalyzeExitsTwo:
    """A typo in a CI step (``lint scr``) must not be a green gate."""

    @pytest.mark.parametrize("command", ["lint"])
    def test_missing_path_and_empty_tree(self, command, tmp_path, capsys):
        assert main([command, str(tmp_path / "scr")]) == 2
        assert "no such path" in capsys.readouterr().err
        (tmp_path / "notes.txt").write_text("no python here\n")
        assert main([command, str(tmp_path)]) == 2
        assert "no .py file" in capsys.readouterr().err

    def test_one_missing_path_among_good_ones(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path), str(tmp_path / "scr")]) == 2


class TestFlowCommands:
    """What ``races`` / ``effects --strict`` enforced is ``lint``'s one
    contract now; the two commands and their flags are gone."""

    def fixture(self, tmp_path, comment):
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (core / "m.py").write_text(
            f"import time\ndef f():\n    return time.time()  {comment}\n"
            f"def g():\n    return 1  # noqa: REPRO110 - nothing here any more\n"
        )
        return str(tmp_path / "repro")

    def test_noqa_with_a_reason_suppresses_and_strict_polices_the_unused(
        self, tmp_path, capsys
    ):
        package = self.fixture(tmp_path, "# noqa: REPRO110 - measured on purpose")
        assert main(["lint", package]) == 1
        out = capsys.readouterr().out
        assert "m.py:5:14: REPRO110 noqa matches no finding; remove it" in out
        assert "found 1 problem(s)" in out  # the reasoned one on line 3 held

    def test_noqa_without_a_reason_leaves_the_finding(self, tmp_path, capsys):
        package = self.fixture(tmp_path, "# noqa: REPRO110")
        assert main(["lint", package]) == 1
        out = capsys.readouterr().out
        assert "m.py:3:11: REPRO110 nondeterminism source: wall-clock" in out
        assert "m.py:3:24: REPRO110 noqa states no reason" in out

    def test_shipped_tree_is_strictly_clean(self, shipped_lint):
        assert shipped_lint[0] == 0

    def test_the_surface_is_two_subcommands_and_no_strictness_flag(self):
        """No second suppression mechanism, no third command."""
        (sub,) = (
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == {"verify", "lint"}
        flags = {
            flag for a in sub.choices["lint"]._actions for flag in a.option_strings
        }
        assert flags == {"-h", "--help", "--rule"}

    @pytest.mark.parametrize("command", ["races", "effects", "summaries"])
    def test_retired_subcommand_exits_two(self, command):
        """...like one that never existed (``summaries``): a usage error."""
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_all_paper_queries_verify(self, capsys):
        assert main(["verify", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        for name in (
            "Q1", "Q2", "Q3", "Q4", "Q5", *SYNTHETIC_STATEMENTS, *SHAPE_TEMPLATES
        ):
            assert f"{name}: OK" in out

    def test_synthetic_statements_cover_what_the_paper_plans_skip(self):
        """An index range scan, a sort under ORDER BY, a mixed-direction
        ORDER BY over a nullable string and the unfused merge join are
        compiled and checked by the default run."""
        db = _synthetic_database(work_mem=24)
        shapes = {
            name: {type(n).__name__ for n in collect_nodes(db.prepare(sql).root)}
            for name, sql in SYNTHETIC_STATEMENTS.items()
        }
        assert "IndexScanNode" in shapes["index-range"]
        assert "SortNode" in shapes["external-sort"]
        assert "MergeJoinNode" in shapes["merge-join"]
        # DESC over a string with NULLs, then ASC over an integer
        root = db.prepare(SYNTHETIC_STATEMENTS["mixed-order-sort"]).root
        sort = next(n for n in collect_nodes(root) if isinstance(n, SortNode))
        kinds = [sort.columns[sort.layout()[c]].type for c, _ in sort.keys]
        assert [asc for _, asc in sort.keys] == [False, True]
        assert isinstance(kinds[0], StringType) and kinds[1] == INTEGER
        assert any(tag is None for _, tag in db.connect().execute(
            "select k, tag from tags").rows)

    def test_single_query(self, capsys):
        assert main(["verify", "--query", "Q1", "--scale", "0.002"]) == 0
        assert "Q1: OK" in capsys.readouterr().out

    def test_small_work_mem_forces_figure3_plans(self, capsys):
        assert main(
            ["verify", "--scale", "0.002", "--work-mem", "1"]
        ) == 0

    def test_ad_hoc_sql(self, capsys):
        assert main(
            ["verify", "--sql", "select count(*) from customer",
             "--scale", "0.002"]
        ) == 0
        assert "sql: OK" in capsys.readouterr().out

    def test_unknown_query_exits_two(self, capsys):
        assert main(["verify", "--query", "Q9"]) == 2


class TestEntryPoints:
    def test_console_script_registered(self):
        """pyproject.toml maps repro-analyze to this main()."""
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert 'repro-analyze = "repro.analysis.cli:main"' in text

    def test_module_invocation(self, fixture_tree):
        """python -m repro.analysis works end to end."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "lint", str(fixture_tree)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "REPRO110" in proc.stdout
