"""Integration: the chaos harness over many seeded fault schedules.

The PR's acceptance bar: at least 50 seeded chaos runs (query executions
under injected faults) with zero invariant violations — every query in
exactly one terminal state, progress monotone, pins released, temp files
gone, finished results bit-identical to fault-free baselines.
"""

from __future__ import annotations

import pytest

from repro.fault.chaos import CI_SEEDS, ChaosHarness, ChaosResult, plan_for_seed

#: 11 seeds x 5 queries = 55 fault-injected query runs.
SEEDS = list(range(1, 12))


@pytest.fixture(scope="module")
def harness() -> ChaosHarness:
    return ChaosHarness()


class TestChaosSuite:
    def test_fifty_plus_runs_zero_violations(self, harness):
        results = harness.run_suite(SEEDS)
        runs = sum(len(r.outcomes) for r in results)
        assert runs >= 50
        violations = [v for r in results for v in r.violations]
        assert violations == [], "\n".join(
            r.summary() for r in results if not r.ok
        )

    def test_sweep_exercises_every_recovery_path(self, harness):
        """The seed range must hit retries, give-ups, fatal spills,
        timeouts, cancels and degraded indicators — otherwise the zero
        violations above would be vacuous."""
        results = harness.run_suite(SEEDS)
        states = {o.state for r in results for o in r.outcomes}
        assert states >= {"finished", "failed", "cancelled", "timed_out"}
        assert any(r.counters.get("io_retries", 0) > 0 for r in results)
        assert any(r.counters.get("io_gave_up", 0) > 0 for r in results)
        assert any(r.counters.get("spill_exhausted", 0) > 0 for r in results)
        assert any(
            o.degraded > 0 for r in results for o in r.outcomes
        )

    def test_chaos_replays_deterministically(self, harness):
        a = harness.run_seed(CI_SEEDS[0])
        b = harness.run_seed(CI_SEEDS[0])
        assert [o.state for o in a.outcomes] == [o.state for o in b.outcomes]
        assert a.counters == b.counters
        assert a.violations == b.violations == []

    def test_plan_for_seed_is_pure(self):
        assert plan_for_seed(123) == plan_for_seed(123)
        assert plan_for_seed(123) != plan_for_seed(124)

    def test_ci_seeds_are_clean(self, harness):
        for seed in CI_SEEDS:
            result = harness.run_seed(seed)
            assert result.ok, result.summary()

    @pytest.mark.parametrize("hook", ["sync", "_parked"])
    def test_a_hook_held_after_the_end_is_a_violation(self, harness, hook):
        """Invariant 6 sees a program held live or parked past its end."""
        name, sql = next(iter(harness.suite.items()))
        handle = harness.db.connect().submit(sql, name=name, trace=True)
        handle.result()
        task = handle.task
        tracker = task.indicator.tracker
        assert task.state == "finished" and tracker.sync is tracker._parked is None
        setattr(tracker, hook, lambda: None)
        result = ChaosResult(seed=0, plan=plan_for_seed(0))
        harness._check_query(result, name, task, None)
        assert [v for v in result.violations if "still hooked" in v] == [
            f"{name}: tracker unfolded or still hooked"
        ]
