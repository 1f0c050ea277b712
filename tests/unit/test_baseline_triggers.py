"""Unit tests for baselines, triggers and rollback."""

import pytest

from repro.core.baseline import (
    OptimizerBaseline,
    StepBaseline,
    actual_remaining_series,
    closer_to_actual,
    optimizer_remaining_series,
)
from repro.core.report import ProgressReport
from repro.core.rollback import RollbackMonitor
from repro.core.triggers import (
    ProgressTrigger,
    TriggerSet,
    overrun_condition,
    slow_progress_condition,
    stalled_condition,
)
from repro.errors import ProgressError
from repro.sim.clock import VirtualClock
from repro.workloads import queries


def report(elapsed=100.0, fraction=0.5, speed=10.0, remaining=100.0):
    return ProgressReport(
        time=elapsed,
        elapsed=elapsed,
        done_pages=fraction * 1000,
        est_cost_pages=1000.0,
        fraction_done=fraction,
        speed_pages_per_sec=speed,
        est_remaining_seconds=remaining,
        current_segment=0,
    )


class TestOptimizerBaseline:
    def test_remaining_decreases_linearly(self, tiny_tpcr):
        monitored = tiny_tpcr.connect().submit(queries.Q1, keep_rows=False).monitored()
        baseline = OptimizerBaseline(monitored.indicator.segments, tiny_tpcr.config)
        assert baseline.remaining(0.0) == pytest.approx(baseline.est_total_seconds)
        assert baseline.remaining(baseline.est_total_seconds / 2) == pytest.approx(
            baseline.est_total_seconds / 2
        )

    def test_remaining_floors_at_zero(self, tiny_tpcr):
        monitored = tiny_tpcr.connect().submit(queries.Q1, keep_rows=False).monitored()
        baseline = OptimizerBaseline(monitored.indicator.segments, tiny_tpcr.config)
        assert baseline.remaining(baseline.est_total_seconds * 10) == 0.0

    def test_series_helpers(self, tiny_tpcr):
        monitored = tiny_tpcr.connect().submit(queries.Q1, keep_rows=False).monitored()
        baseline = OptimizerBaseline(monitored.indicator.segments, tiny_tpcr.config)
        points = [0.0, 10.0, 20.0]
        opt = optimizer_remaining_series(baseline, points)
        act = actual_remaining_series(30.0, points)
        assert [t for t, _ in opt] == points
        assert act[-1][1] == pytest.approx(10.0)

    def test_closer_to_actual(self):
        assert closer_to_actual(95.0, 50.0, 100.0)
        assert not closer_to_actual(10.0, 90.0, 100.0)
        assert not closer_to_actual(None, 90.0, 100.0)


class TestStepBaseline:
    def test_steps_advance_with_segments(self, tiny_tpcr):
        monitored = tiny_tpcr.connect().submit(queries.Q2, keep_rows=False).monitored()
        step = StepBaseline(
            monitored.indicator.segments, monitored.indicator.tracker
        )
        assert step.current_step() == step.total_steps + 1
        assert "completed" in step.describe()


class TestTriggers:
    def test_slow_progress_fires(self):
        fired = []
        trigger = ProgressTrigger(
            "slow",
            slow_progress_condition(max_fraction=0.1, after_seconds=3600),
            fired.append,
        )
        assert not trigger.observe(report(elapsed=100.0, fraction=0.05))
        assert trigger.observe(report(elapsed=4000.0, fraction=0.05))
        assert fired

    def test_once_semantics(self):
        trigger = ProgressTrigger(
            "slow",
            slow_progress_condition(0.5, 0.0),
            lambda r: None,
            once=True,
        )
        assert trigger.observe(report(fraction=0.1))
        assert not trigger.observe(report(fraction=0.1))
        assert trigger.fired == 1

    def test_repeating_trigger(self):
        trigger = ProgressTrigger(
            "slow", slow_progress_condition(0.5, 0.0), lambda r: None, once=False
        )
        trigger.observe(report(fraction=0.1))
        trigger.observe(report(fraction=0.1))
        assert trigger.fired == 2

    def test_stalled_condition(self):
        cond = stalled_condition(min_speed_pages=5.0, after_seconds=10.0)
        assert cond(report(elapsed=20.0, speed=1.0))
        assert not cond(report(elapsed=20.0, speed=50.0))
        assert not cond(report(elapsed=5.0, speed=1.0))

    def test_overrun_condition(self):
        cond = overrun_condition(factor=3.0)
        assert cond(report(elapsed=10.0, remaining=100.0))
        assert not cond(report(elapsed=100.0, remaining=100.0))

    def test_trigger_set_dispatches(self):
        fired = []
        triggers = TriggerSet()
        triggers.add(
            ProgressTrigger("a", slow_progress_condition(0.9, 0.0), lambda r: fired.append("a"))
        )
        triggers.add(
            ProgressTrigger("b", stalled_condition(100.0, 0.0), lambda r: fired.append("b"))
        )
        triggers(report(fraction=0.1, speed=1.0))
        assert fired == ["a", "b"]


class TestRollbackMonitor:
    def test_tracks_progress(self):
        clock = VirtualClock()
        monitor = RollbackMonitor(1000, clock)
        clock.advance_wall(1.0)
        monitor.record_rolled_back(100)
        assert monitor.remaining_records == 900
        assert monitor.fraction_done == pytest.approx(0.1)

    def test_estimates_remaining_time(self):
        clock = VirtualClock()
        monitor = RollbackMonitor(1000, clock)
        for _ in range(5):
            clock.advance_wall(1.0)
            monitor.record_rolled_back(50)  # 50 records/second
        assert monitor.est_remaining_seconds() == pytest.approx(
            monitor.remaining_records / 50.0, rel=0.05
        )

    def test_none_before_any_speed(self):
        monitor = RollbackMonitor(10, VirtualClock())
        assert monitor.est_remaining_seconds() is None

    def test_zero_records_done_immediately(self):
        monitor = RollbackMonitor(0, VirtualClock())
        assert monitor.fraction_done == 1.0

    def test_negative_inputs_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ProgressError):
            RollbackMonitor(-1, clock)
        monitor = RollbackMonitor(10, clock)
        with pytest.raises(ProgressError):
            monitor.record_rolled_back(-5)
