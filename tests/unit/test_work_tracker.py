"""Unit tests for the work tracker (U counters)."""

import pytest

from repro.config import SystemConfig
from repro.executor.work import WorkTracker, page_share
from repro.sim.clock import VirtualClock
from repro.workloads import tpcr


def make_tracker(num_inputs=(1, 2), final=1, clock=None):
    return WorkTracker(list(num_inputs), final_segment=final, clock=clock)


class TestCounting:
    def test_input_rows_accumulate(self):
        tracker = make_tracker()
        tracker.input_rows(0, 0, 10, 400.0)
        tracker.input_rows(0, 0, 5, 200.0)
        seg = tracker.segments[0]
        assert seg.input_rows[0] == 15
        assert seg.input_bytes[0] == 600.0
        assert tracker.total_done_bytes == 600.0

    def test_output_rows_counted_for_inner_segments(self):
        tracker = make_tracker()
        tracker.output_rows(0, 3, 90.0)
        assert tracker.segments[0].output_rows == 3
        assert tracker.total_done_bytes == 90.0

    def test_final_segment_output_not_work(self):
        # Section 4.5: the final result shown to the user is not counted.
        tracker = make_tracker()
        tracker.output_rows(1, 3, 90.0)
        assert tracker.segments[1].output_rows == 3
        assert tracker.total_done_bytes == 0.0

    def test_extra_pass_counts(self):
        tracker = make_tracker()
        tracker.extra_pass(0, 500.0)
        assert tracker.segments[0].extra_bytes == 500.0
        assert tracker.total_done_bytes == 500.0

    def test_done_pages(self):
        tracker = make_tracker()
        tracker.input_rows(0, 0, 1, 8192.0)
        assert tracker.done_pages(8192) == pytest.approx(1.0)

    def test_avg_widths(self):
        tracker = make_tracker()
        tracker.input_rows(0, 0, 4, 100.0)
        tracker.output_rows(0, 2, 80.0)
        seg = tracker.segments[0]
        assert seg.avg_input_width(0) == pytest.approx(25.0)
        assert seg.avg_output_width() == pytest.approx(40.0)

    def test_avg_widths_none_before_data(self):
        seg = make_tracker().segments[0]
        assert seg.avg_input_width(0) is None
        assert seg.avg_output_width() is None


class TestLifecycle:
    def test_first_charge_starts_segment(self):
        tracker = make_tracker()
        assert not tracker.segments[0].started
        tracker.input_rows(0, 0, 1, 10.0)
        assert tracker.segments[0].started

    def test_started_at_records_clock(self):
        clock = VirtualClock()
        tracker = make_tracker(clock=clock)
        clock.advance(5.0)
        tracker.input_rows(0, 0, 1, 10.0)
        assert tracker.segments[0].started_at == pytest.approx(5.0)

    def test_segment_finished(self):
        clock = VirtualClock()
        tracker = make_tracker(clock=clock)
        clock.advance(3.0)
        tracker.segment_finished(0)
        seg = tracker.segments[0]
        assert seg.finished
        assert seg.finished_at == pytest.approx(3.0)

    def test_finished_idempotent(self):
        tracker = make_tracker()
        calls = []
        tracker.on_segment_finished = calls.append
        tracker.segment_finished(0)
        tracker.segment_finished(0)
        assert calls == [0]

    def test_finish_all(self):
        tracker = make_tracker()
        tracker.finish_all()
        assert all(s.finished for s in tracker.segments)


class TestCurrentSegment:
    def test_none_before_start(self):
        assert make_tracker().current_segment() is None

    def test_deepest_unfinished_started(self):
        tracker = make_tracker((1, 1, 1), final=2)
        tracker.input_rows(0, 0, 1, 10.0)
        assert tracker.current_segment() == 0
        tracker.segment_finished(0)
        tracker.input_rows(1, 0, 1, 10.0)
        assert tracker.current_segment() == 1

    def test_overlapping_segments_report_earliest(self):
        # A pipelined plan can have several started segments; the paper's
        # "current segment" is the one still consuming its dominant input.
        tracker = make_tracker((1, 1, 1), final=2)
        tracker.input_rows(0, 0, 1, 10.0)
        tracker.input_rows(1, 0, 1, 10.0)
        assert tracker.current_segment() == 0

    def test_none_after_finish_all(self):
        tracker = make_tracker()
        tracker.finish_all()
        assert tracker.current_segment() is None


class TestExactArithmetic:
    """U is integer arithmetic: sums are exact in any order."""

    @pytest.mark.parametrize("n", [1, 2, 7, 85])
    @pytest.mark.parametrize("nbytes", [1, 85, 8191, 8192, 7919, 12345])
    def test_row_shares_of_a_page_sum_to_bytes_used(self, n, nbytes):
        shares = [
            page_share(k + 1, nbytes, n) - page_share(k, nbytes, n)
            for k in range(n)
        ]
        assert sum(shares) == nbytes
        assert all(isinstance(s, int) and s >= 0 for s in shares)
        # Row k's cumulative credit is the closed form, at most one byte
        # below the real-valued share k * nbytes / n.
        for k in range(n + 1):
            assert 0 <= k * nbytes / n - page_share(k, nbytes, n) < 1

    def test_done_bytes_is_the_sum_of_the_primary_counters(self):
        tracker = make_tracker((1, 2), final=1)
        tracker.input_rows(0, 0, 3, 120)
        tracker.output_rows(0, 2, 64)
        tracker.extra_pass(0, 2 * 500)
        tracker.input_rows(1, 0, 1, 7)
        tracker.input_rows(1, 1, 1, 9)
        tracker.output_rows(1, 5, 333)  # final result: not work
        assert tracker.segments[0].done_bytes == 120 + 64 + 1000
        assert tracker.segments[1].done_bytes == 7 + 9
        assert tracker.total_done_bytes == 1200
        assert tracker.total_done_bytes == sum(
            seg.done_bytes for seg in tracker.segments
        )

    def test_counters_stay_floats_holding_integers(self):
        # The trace wire format prints them as before ("123.0").
        tracker = make_tracker()
        tracker.input_rows(0, 0, 1, 41)
        tracker.output_rows(0, 1, 17)
        seg = tracker.segments[0]
        for value in (seg.input_bytes[0], seg.output_bytes, seg.done_bytes,
                      tracker.total_done_bytes):
            assert isinstance(value, float) and value.is_integer()

    @pytest.mark.parametrize("engine", ["row", "batch"])
    @pytest.mark.parametrize("granularity", ["tuple", "page"])
    def test_full_scan_reads_exactly_the_bytes_on_its_pages(
        self, engine, granularity
    ):
        config = SystemConfig().with_progress(
            engine=engine, scan_granularity=granularity
        )
        db = tpcr.build_database(scale=0.002, subset_rows=60, config=config)
        handle = db.connect().submit(
            "select * from orders", monitor=True, keep_rows=False
        )
        handle.result()
        heap = db.catalog.get_table("orders").heap
        on_pages = sum(page.bytes_used for page in heap.iter_pages())
        seg = handle.task.indicator.tracker.segments[0]
        assert seg.input_bytes[0] == on_pages
        assert seg.input_rows[0] == heap.num_tuples
        # An exact page total, not 25.287231445312496-style float dust.
        assert handle.log.final().done_pages == on_pages / db.config.page_size


class TestSync:
    """Readers pull: ``sync`` runs before anything reads the counters."""

    def test_no_sync_until_a_program_installs_one(self):
        assert make_tracker().sync is None

    def test_done_pages_and_segment_finished_sync_first(self):
        tracker = make_tracker()
        pending = [8192]

        def sync():
            if pending:
                tracker.segments[0].input_bytes[0] += pending.pop()

        tracker.sync = sync
        assert tracker.total_done_bytes == 0  # the raw sum does not pull
        assert tracker.done_pages(8192) == 1.0
        pending.append(8192)
        finished = []
        tracker.on_segment_finished = lambda seg_id: finished.append(
            tracker.segments[seg_id].done_bytes
        )
        tracker.finish_all()
        assert finished == [16384.0, 0.0]
