"""Property-based tests: progress-indicator invariants on random queries."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segments import SegmentInput, SegmentSpec
from repro.database import Database
from repro.estimators.refinement import PaperEstimator
from repro.executor.work import WorkTracker
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string


# ----------------------------------------------------------------------
# refinement-formula invariants over random counter states

spec_state = st.tuples(
    st.floats(min_value=1.0, max_value=10_000.0),  # Ne
    st.integers(min_value=0, max_value=20_000),  # rows read x
    st.integers(min_value=0, max_value=20_000),  # outputs y
    st.floats(min_value=0.0, max_value=10.0),  # true selectivity-ish factor
)


def run_refiner(ne, x, y, factor):
    spec = SegmentSpec(
        id=0,
        label="s",
        inputs=[
            SegmentInput(0, "base", "t", est_rows=ne, est_width=40.0, dominant=True)
        ],
        est_output_rows=factor * ne,
        est_output_width=50.0,
        final=True,
        card_factor=factor,
    )
    tracker = WorkTracker([1], final_segment=0)
    if x:
        tracker.input_rows(0, 0, x, x * 40.0)
    if y:
        tracker.output_rows(0, y, y * 50.0)
    return PaperEstimator([spec], tracker).snapshot()


class TestRefinementProperties:
    @given(spec_state)
    def test_output_estimate_at_least_observed(self, state):
        ne, x, y, factor = state
        snap = run_refiner(ne, x, y, factor)
        assert snap.segments[0].est_output_rows >= y - 1e-6

    @given(spec_state)
    def test_p_in_unit_interval(self, state):
        ne, x, y, factor = state
        snap = run_refiner(ne, x, y, factor)
        assert 0.0 <= snap.segments[0].p <= 1.0

    @given(spec_state)
    def test_cost_at_least_done(self, state):
        ne, x, y, factor = state
        snap = run_refiner(ne, x, y, factor)
        seg = snap.segments[0]
        assert seg.est_cost_bytes >= seg.done_bytes - 1e-6

    @given(spec_state)
    def test_fraction_done_in_unit_interval(self, state):
        ne, x, y, factor = state
        snap = run_refiner(ne, x, y, factor)
        assert 0.0 <= snap.fraction_done <= 1.0

    @given(spec_state)
    def test_input_estimate_never_below_reads(self, state):
        ne, x, y, factor = state
        snap = run_refiner(ne, x, y, factor)
        assert snap.segments[0].inputs[0].est_rows >= x


# ----------------------------------------------------------------------
# whole-query invariants over random filtered scans

scan_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50), st.text(max_size=8)),
    min_size=20,
    max_size=400,
)


class TestMonitoredQueryProperties:
    @settings(max_examples=15, deadline=None)
    @given(scan_rows, st.integers(min_value=0, max_value=50))
    def test_scan_progress_invariants(self, data, threshold):
        db = Database()
        db.create_table(
            "t", Schema([Column("k", INTEGER), Column("s", string(16))]), data
        )
        db.analyze()
        monitored = db.connect().submit(
            f"select k from t where k < {threshold}", keep_rows=True
        ).monitored()
        expected = sum(1 for k, _ in data if k < threshold)
        assert monitored.result.row_count == expected

        log = monitored.log
        # Percent-done is monotone and ends at 100 for a pure scan.
        percents = [r.percent_done for r in log]
        assert all(b >= a - 1e-6 for a, b in zip(percents, percents[1:]))
        assert log.final().percent_done == 100.0
        # Done work never exceeds the estimated total.
        for r in log:
            assert r.done_pages <= r.est_cost_pages + 1e-6

    @settings(max_examples=10, deadline=None)
    @given(scan_rows)
    def test_monitoring_does_not_change_results(self, data):
        def build():
            db = Database()
            db.create_table(
                "t", Schema([Column("k", INTEGER), Column("s", string(16))]), data
            )
            db.analyze()
            return db

        plain = build().connect().execute("select k, s from t where k > 10")
        monitored = build().connect().submit(
            "select k, s from t where k > 10", keep_rows=True
        ).monitored()
        assert plain.rows == monitored.result.rows
