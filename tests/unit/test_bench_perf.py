"""Unit tests: the compile-once guard, the ``repro.bench`` CLI and the
committed figure-result schema."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench import perf
from repro.bench.__main__ import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestShapeCheck:
    def test_clean_tree_compiles_each_shape_once(self):
        assert perf.check_shape_compiles(statements=4) == []

    def test_leaked_runtime_value_is_reported(self, monkeypatch):
        """Sabotage: a per-query value in the plan-shape key, the way the
        hash-join partition names once carried an ``id()`` into the text."""
        import itertools

        from repro.executor import fused

        plan_key = fused._plan_key
        serial = itertools.count()
        monkeypatch.setattr(
            fused, "_plan_key", lambda *args: (next(serial), plan_key(*args))
        )
        problems = perf.check_shape_compiles(statements=4)
        assert len(problems) == 2 * len(perf.SHAPE_TEMPLATES)
        assert all("4 compiles for 4" in p for p in problems)

    def test_hits_are_counted_beside_compiles(self):
        from repro.executor import fused

        fused.code_cache_clear()
        counts = list(perf.shape_counts(statements=3))
        assert [c[:2] for c in counts[:2]] == [
            ("index_lookup", "plain"), ("index_lookup", "monitored")
        ]
        assert len(counts) == 2 * len(perf.SHAPE_TEMPLATES)
        assert all(compiles == 1 and hits == 2 for *_, compiles, hits in counts)


class TestStatementCheck:
    def test_one_text_plans_once_and_once_after_analyze(self):
        counts = list(perf.statement_counts(statements=3))
        assert [name for name, *_ in counts] == list(perf.SHAPE_TEMPLATES)
        assert all(plans == 1 and replans == 1 for _, plans, replans in counts)

    @pytest.mark.parametrize("unchanged, want", [(True, (1, 0)), (False, (3, 3))])
    def test_a_broken_read_set_check_is_reported(self, monkeypatch, unchanged, want):
        """Sabotage: a hit that never re-checks what the plan read misses
        ANALYZE; one that always finds it changed plans every time."""
        import repro.database

        monkeypatch.setattr(
            repro.database, "_unchanged", lambda catalog, reads: unchanged
        )
        counts = list(perf.statement_counts(statements=3))
        assert all((plans, replans) == want for _, plans, replans in counts)


class TestCli:
    def test_shapecheck_is_the_only_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perfcheck"])
        assert exc.value.code == 2
        assert "invalid choice: 'perfcheck'" in capsys.readouterr().err

    def test_shapecheck_passes(self, capsys):
        from repro.executor import fused

        fused.code_cache_clear()  # equal shapes of earlier tests would hit
        assert main(["shapecheck", "--statements", "4"]) == 0
        out = capsys.readouterr().out
        assert "ok: external_sort [monitored]: 1 compiles, 3 hits" in out
        assert "shape gate: PASS" in out
        assert (
            "ok: external_sort [statement]: 1 plans for 4 submissions, "
            "1 after analyze()" in out
        )
        assert "statement gate: PASS" in out
        assert "cache_info: DatabaseCacheInfo(statements=CacheInfo(" in out


class TestBenchResultSchema:
    def test_committed_results_are_schema_1(self):
        """Figure results are pure functions of the seed: one schema, and
        no real-time field (that lives in ``benchmarks/e2e/``)."""
        results = REPO_ROOT / "benchmarks" / "results"
        checked = 0
        for path in sorted(results.glob("*.json")):
            doc = json.loads(path.read_text())
            if str(doc.get("schema", "")).startswith("repro.bench/"):
                assert doc["schema"] == "repro.bench/1", path.name
                assert "real_time_s" not in doc, path.name
                checked += 1
        assert checked > 0
