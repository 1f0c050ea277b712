"""Tests of the benchmark's own arithmetic and a miniature of each workload.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of tier 1:
``pyproject.toml`` collects ``tests/`` only).
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# arithmetic


def test_nearest_rank_percentile():
    values = [15, 20, 35, 40, 50]
    assert stats.nearest_rank(values, 5) == 15
    assert stats.nearest_rank(values, 30) == 20
    assert stats.nearest_rank(values, 40) == 20
    assert stats.nearest_rank(values, 50) == 35
    assert stats.nearest_rank(values, 90) == 50
    assert stats.nearest_rank(values, 100) == 50
    assert stats.nearest_rank([7], 50) == 7
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_per_op_median_is_per_column():
    rounds = [[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]]
    assert stats.per_op_median(rounds) == [2.0, 20.0]
    # One slow round moves a total by 3x but no per-op median at all.
    assert stats.per_op_median(rounds + [[9.0, 90.0], [2.0, 20.0]]) == [2.0, 20.0]
    with pytest.raises(ValueError):
        stats.per_op_median([[1.0], [1.0, 2.0]])


def test_geomean_and_qerror():
    assert stats.geomean([1, 100]) == pytest.approx(10)
    assert stats.geomean([4]) == pytest.approx(4)
    assert stats.qerror(10, 5, 1.0) == 2
    assert stats.qerror(5, 10, 1.0) == 2
    assert stats.qerror(0.0, 0.5, 1.0) == 1  # both floored


def test_iqr_share_matches_the_contract_definition():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == (q3 - q1) / statistics.median(values)


def test_span_self_time_is_span_minus_children():
    rec = SpanRecorder()
    rec.spans = [
        ["query", 0, 100, -1, "q"],
        ["parse", 10, 30, 0, "q"],
        ["run", 40, 90, 0, "q"],
        ["inner", 50, 60, 2, "q"],
    ]
    assert rec.total_ns() == {"query": 100, "parse": 20, "run": 50, "inner": 10}
    assert rec.self_ns() == {"query": 30, "parse": 20, "run": 40, "inner": 10}


def test_span_recorder_nests_and_inherits_query_id():
    rec = SpanRecorder()
    with rec.span("query", query="q1"):
        with rec.span("parse"):
            pass
    (outer, inner) = rec.spans
    assert outer[3] == -1 and inner[3] == 0
    assert inner[4] == "q1"
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_compare_verdicts():
    same = [10.0] * 10
    assert compare.verdict(same, [10.5] * 10, "lower", 0.10) == "same"
    assert compare.verdict(same, [11.5] * 10, "lower", 0.10) == "worse"
    assert compare.verdict(same, [11.5] * 10, "higher", 0.10) == "better"
    assert compare.verdict([10.0], [8.0], "lower", 0.10) == "better"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0, 10.0, 9.5, 10.5]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.10) == "unresolved"


# ----------------------------------------------------------------------
# workloads


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_the_op_list(name):
    workload = WORKLOADS[name]
    assert workload.ops(7) == workload.ops(7)
    # paper_solo's statements are the paper's; only its data is seeded.
    assert workload.ops(7) != workload.ops(8) or name == "paper_solo"
    assert workload.data_seed(7) != workload.data_seed(8)
    assert [op.template for op in workload.ops(7)] == [
        op.template for op in workload.ops(8)
    ]
    names = [op.name for op in workload.ops(7)]
    assert len(set(names)) == len(names)


def test_declaration_matches_the_workloads():
    assert [w["name"] for w in DECLARATION["workloads"]] == list(WORKLOADS)
    for entry in DECLARATION["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    exact = compare.EXACT
    declared = {m["name"] for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]}
    assert exact <= declared


def miniature(name):
    """The same workload class on a tenth of the data and a few ops."""
    workload = type(WORKLOADS[name])()
    workload.scale = 0.001
    workload.subset_rows = 20
    workload.per_template = 3
    workload.lookups = 4
    workload.size = 24
    workload.probe_count = 4
    return workload


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_miniature_end_to_end(name):
    workload = miniature(name)
    expect = oracle.expected(workload, 3)
    assert all(v["ok"] for v in expect.values())
    checker = measure.Checker()
    dbs, setup_s = measure.setup(workload, 3)
    rounds = measure.run_rounds(workload, 3, dbs, expect, checker, seconds=0.0)
    assert len(rounds.monitored) == measure.MIN_ROUNDS
    assert checker.correct, checker.messages
    assert checker.attempted == 2 * (measure.MIN_ROUNDS + 1) * len(rounds.ops)
    metrics = measure.end_to_end(workload, rounds, setup_s)
    assert list(metrics) == [m["name"] for m in DECLARATION["end_to_end"]]
    assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics
    if name != "service_flood":
        assert metrics["finished_share"] == 1.0


@pytest.mark.parametrize("name", ["point_lookups", "cold_spill", "service_flood"])
def test_miniature_traced_run(name):
    workload = miniature(name)
    expect = oracle.expected(workload, 3)
    checker = measure.Checker()
    metrics, recorder = layers.run(workload, 3, 0.0, expect, checker)
    assert checker.correct, checker.messages
    assert set(metrics) == {m["name"] for m in DECLARATION["per_layer"]}
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values()), metrics
    roots = sum(s[2] - s[1] for s in recorder.spans if s[3] == -1)
    assert sum(recorder.self_ns().values()) == roots
    assert metrics["sched.slices"] > 0


def test_oracle_catches_a_wrong_answer():
    workload = miniature("point_lookups")
    expect = oracle.expected(workload, 3)
    victim = workload.ops(3)[0].name
    expect[victim] = dict(expect[victim], rows=expect[victim]["rows"] + 1)
    checker = measure.Checker()
    dbs, _ = measure.setup_once(workload, 3)
    measure.closed_pass(dbs, workload.ops(3), True, expect, checker)
    assert checker.failed == 1 and not checker.correct
