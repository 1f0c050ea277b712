"""Unit tests: the real-time perf suite and its baseline gate."""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import sys

import pytest

from repro.bench import perf

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _case_result(name, row_s, batch_s, scan=False):
    return perf.CaseResult(
        name=name,
        scan_dominated=scan,
        monitor=False,
        row_s=row_s,
        batch_s=batch_s,
    )


def _suite(cases):
    return perf.SuiteResult(scale=0.01, runs=3, cases=tuple(cases))


class TestShapeCheck:
    def test_clean_tree_compiles_each_shape_once(self):
        assert perf.check_shape_compiles(statements=4) == []

    def test_leaked_runtime_value_is_reported(self, monkeypatch):
        """Sabotage: a per-query value in the generated text, the way the
        hash-join partition names used to carry an ``id()``."""
        import itertools

        from repro.executor import fused

        compile_plan = fused._Compiler.compile
        serial = itertools.count()

        def leaky(self, root):
            return compile_plan(self, root) + f"# plan {next(serial)}\n"

        monkeypatch.setattr(fused._Compiler, "compile", leaky)
        problems = perf.check_shape_compiles(statements=4)
        assert len(problems) == 2 * len(perf.SHAPE_TEMPLATES)
        assert all("4 compiles for 4" in p for p in problems)


class TestRegistry:
    def test_names_unique_and_stable(self):
        names = [c.name for c in perf.PERF_CASES]
        assert len(names) == len(set(names))
        assert len(names) >= 6

    def test_has_scan_dominated_and_monitored_cases(self):
        assert any(c.scan_dominated for c in perf.PERF_CASES)
        assert any(c.monitor for c in perf.PERF_CASES)

    def test_select_cases_default_is_full_registry(self):
        assert perf.select_cases(None) == list(perf.PERF_CASES)

    def test_select_cases_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown perf case"):
            perf.select_cases(["scan_wide", "nope"])

    def test_baseline_matches_registry(self):
        """The committed baseline covers exactly the current registry."""
        baseline = perf.load_baseline()
        assert {c["name"] for c in baseline["cases"]} == {
            c.name for c in perf.PERF_CASES
        }

    def test_committed_baseline_meets_all_targets(self):
        baseline = perf.load_baseline()
        assert baseline["geomean_speedup"] >= perf.GEOMEAN_FLOOR
        for case in baseline["cases"]:
            assert case["speedup"] > 0
            if case["scan_dominated"]:
                assert case["speedup"] >= perf.SCAN_FLOOR
            assert case["batch_s"] <= case["row_s"] * (
                1.0 + perf.REGRESSION_BUDGET
            )


class TestChecks:
    def test_clean_suite_passes(self):
        suite = _suite(
            [
                _case_result("a", 0.10, 0.02, scan=True),
                _case_result("b", 0.10, 0.03),
            ]
        )
        assert perf.check_suite(suite) == []

    def test_geomean_floor_violation(self):
        suite = _suite([_case_result("a", 0.10, 0.05)])
        problems = perf.check_suite(suite)
        assert any("geomean" in p for p in problems)

    def test_scan_floor_violation(self):
        suite = _suite([_case_result("a", 0.10, 0.025, scan=True)])
        problems = perf.check_suite(suite)
        assert any("scan-dominated" in p for p in problems)

    def test_regression_budget_violation(self):
        ok = _suite(
            [_case_result("fast", 0.1, 0.02), _case_result("slow", 0.1, 0.105)]
        )
        assert not any("slower" in p for p in perf.check_suite(ok))
        bad = _suite(
            [_case_result("fast", 0.1, 0.02), _case_result("slow", 0.1, 0.12)]
        )
        assert any("slower" in p for p in perf.check_suite(bad))

    def test_geomean_is_geometric(self):
        suite = _suite(
            [_case_result("a", 0.2, 0.1), _case_result("b", 0.8, 0.1)]
        )
        assert suite.geomean_speedup == pytest.approx(math.sqrt(2 * 8))


class TestBaselineComparison:
    BASE = {
        "schema": perf.PERF_SCHEMA,
        "cases": [
            {"name": "a", "speedup": 4.0},
            {"name": "b", "speedup": 6.0},
        ],
    }

    def test_within_tolerance_passes(self):
        fresh = _suite(
            [_case_result("a", 0.09, 0.03), _case_result("b", 0.25, 0.05)]
        )  # 3.0x and 5.0x vs 4.0x/6.0x baseline: inside 35%
        assert perf.compare_to_baseline(fresh, self.BASE, tolerance=0.35) == []

    def test_collapsed_speedup_fails(self):
        fresh = _suite(
            [_case_result("a", 0.06, 0.03), _case_result("b", 0.25, 0.05)]
        )  # case a fell to 2.0x against a 4.0x baseline
        problems = perf.compare_to_baseline(fresh, self.BASE, tolerance=0.35)
        assert any("case a" in p for p in problems)

    def test_subset_only_compares_present_cases(self):
        fresh = _suite([_case_result("b", 0.25, 0.05)])
        assert perf.compare_to_baseline(fresh, self.BASE, tolerance=0.35) == []

    def test_case_missing_from_baseline_fails(self):
        fresh = _suite([_case_result("new", 0.1, 0.02)])
        problems = perf.compare_to_baseline(fresh, self.BASE)
        assert any("missing from the baseline" in p for p in problems)


class TestSerialization:
    def test_doc_round_trips(self, tmp_path):
        suite = _suite(
            [
                _case_result("a", 0.10, 0.02, scan=True),
                _case_result("b", 0.10, 0.03),
            ]
        )
        path = perf.write_baseline(suite, tmp_path / "base.json")
        doc = perf.load_baseline(path)
        assert doc["schema"] == perf.PERF_SCHEMA
        assert doc["geomean_speedup"] == pytest.approx(
            suite.geomean_speedup, rel=1e-3
        )
        assert [c["name"] for c in doc["cases"]] == ["a", "b"]

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="expected schema"):
            perf.load_baseline(path)

    def test_sheet_renders_targets_and_cases(self):
        suite = _suite(
            [
                _case_result("scan_thing", 0.10, 0.015, scan=True),
                _case_result("agg_thing", 0.10, 0.03),
            ]
        )
        sheet = perf.render_sheet(suite)
        assert "scan_thing" in sheet and "agg_thing" in sheet
        assert "bit-identical" in sheet
        assert "perfcheck" in sheet


# ----------------------------------------------------------------------
# benchmarks/common.py: the repro.bench/2 result schema


def _load_benchmarks_common():
    path = REPO_ROOT / "benchmarks" / "common.py"
    spec = importlib.util.spec_from_file_location("_bench_common", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["_bench_common"] = module
    spec.loader.exec_module(module)
    return module


class TestBenchResultSchema:
    def test_writes_schema_2_with_real_time(self, tmp_path, monkeypatch):
        common = _load_benchmarks_common()
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        path = common.write_bench_json(
            "unit_demo",
            scalars={"total_elapsed_s": 12.0},
            real_time_s=0.25,
        )
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.bench/2"
        assert doc["real_time_s"] == 0.25

    def test_read_upgrades_schema_1(self, tmp_path):
        common = _load_benchmarks_common()
        old = tmp_path / "old.json"
        old.write_text(
            json.dumps(
                {"schema": "repro.bench/1", "bench": "x", "scalars": {"a": 1}}
            )
        )
        doc = common.read_bench_json(old)
        assert doc["real_time_s"] is None
        assert doc["scalars"] == {"a": 1}

    def test_read_rejects_unknown_schema(self, tmp_path):
        common = _load_benchmarks_common()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.bench/99"}))
        with pytest.raises(ValueError, match="unknown bench schema"):
            common.read_bench_json(bad)

    def test_committed_results_all_readable(self):
        """Every committed results document parses under the reader."""
        common = _load_benchmarks_common()
        results = REPO_ROOT / "benchmarks" / "results"
        read = 0
        for path in sorted(results.glob("*.json")):
            doc = json.loads(path.read_text())
            if str(doc.get("schema", "")).startswith("repro.bench/"):
                common.read_bench_json(path)
                read += 1
        assert read > 0
