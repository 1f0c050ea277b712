"""Unit tests for EXPLAIN / EXPLAIN ANALYZE."""

import pytest

from repro.workloads import queries, tpcr


@pytest.fixture(scope="module")
def db():
    return tpcr.build_database(scale=0.002)


class TestExplainAnalyze:
    def test_actual_rows_rendered_per_operator(self, db):
        text = db.explain_analyze(queries.Q1)
        assert text.count("actual rows=") >= 2  # scan + project

    def test_exposes_cardinality_misestimates(self, db):
        # The lineitem default selectivity: est ~1/3 of actual.
        text = db.explain_analyze(queries.Q2)
        lineitem_line = next(
            line for line in text.splitlines() if "lineitem" in line
        )
        assert "rows=4000" in lineitem_line
        assert "actual rows=12000" in lineitem_line

    def test_accurate_estimates_match(self, db):
        text = db.explain_analyze("select custkey from customer")
        scan_line = next(
            line for line in text.splitlines() if "SeqScan" in line
        )
        assert "(rows=300 width=" in scan_line
        assert "actual rows=300" in scan_line

    def test_execution_summary_appended(self, db):
        text = db.explain_analyze("select count(*) from orders")
        assert "Execution: 1 rows in" in text

    def test_limit_shows_short_circuit(self, db):
        text = db.explain_analyze("select custkey from customer limit 7")
        limit_line = next(l for l in text.splitlines() if "Limit" in l)
        assert "actual rows=7" in limit_line

    def test_counting_does_not_change_results(self, db):
        plain = db.connect().execute(queries.Q2, keep_rows=False)
        analyzed = db.explain_analyze(queries.Q2)
        assert f"Execution: {plain.row_count} rows" in analyzed

    def test_plain_explain_has_no_actuals(self, db):
        text = db.explain(queries.Q1)
        assert "actual rows" not in text
        assert "SeqScan(lineitem)" in text
