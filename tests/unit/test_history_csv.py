"""Unit tests for progress-history CSV archiving (paper Section 6 uses)."""

import pytest

from repro.core.history import ProgressLog
from repro.workloads import queries, tpcr


@pytest.fixture(scope="module")
def log():
    db = tpcr.build_database(scale=0.002)
    return db.connect().submit(queries.Q2, keep_rows=False).monitored().log


class TestCsvRoundTrip:
    def test_row_count_preserved(self, log):
        restored = ProgressLog.from_csv(log.to_csv())
        assert len(restored) == len(log)

    def test_series_preserved(self, log):
        restored = ProgressLog.from_csv(log.to_csv())
        for original, back in zip(
            log.estimated_cost_series(), restored.estimated_cost_series()
        ):
            assert back[0] == pytest.approx(original[0], abs=1e-3)
            assert back[1] == pytest.approx(original[1], abs=1e-2)

    def test_percent_preserved(self, log):
        restored = ProgressLog.from_csv(log.to_csv())
        for original, back in zip(log.percent_series(), restored.percent_series()):
            assert back[1] == pytest.approx(original[1], abs=1e-2)

    def test_none_fields_survive(self, log):
        restored = ProgressLog.from_csv(log.to_csv())
        original_undefined = [
            r.est_remaining_seconds is None for r in log.reports
        ]
        restored_undefined = [
            r.est_remaining_seconds is None for r in restored.reports
        ]
        assert restored_undefined == original_undefined

    def test_final_flag_set(self, log):
        restored = ProgressLog.from_csv(log.to_csv())
        assert restored.final().finished

    def test_total_elapsed_matches(self, log):
        restored = ProgressLog.from_csv(log.to_csv())
        assert restored.total_elapsed == pytest.approx(log.total_elapsed, abs=1e-2)

    def test_tuning_lookups_still_work(self, log):
        restored = ProgressLog.from_csv(log.to_csv())
        mid = restored.at(restored.total_elapsed / 2)
        assert mid is not None
        assert restored.mean_absolute_remaining_error() is not None


class TestCsvErrors:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProgressLog.from_csv("")

    def test_header_only_rejected(self):
        with pytest.raises(ValueError):
            ProgressLog.from_csv("elapsed,done_pages,x,y,z,w,v\n")

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError):
            ProgressLog.from_csv(
                "elapsed,done_pages,est_cost_pages,percent_done,"
                "speed_pages_per_sec,est_remaining_seconds,current_segment\n"
                "1,2,3\n"
            )
