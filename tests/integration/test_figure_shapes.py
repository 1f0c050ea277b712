"""Integration: the committed series match the paper's figure shapes.

One test class per experiment of Section 5.  We assert *shapes* — which
estimate is wrong, when learning happens, who wins — not absolute seconds
(our substrate is a simulator, not the authors' 600 MHz laptop).  Each
test evaluates the experiment registry's claim of the same name against
the committed documents under ``benchmarks/results/``; no query runs
here.  That the committed documents are what the code computes is
``python -m repro reproduce --check`` (and, for one cheap entry,
``test_reproduce_runner.py``).
"""

import pytest

from repro.bench import experiments


@pytest.fixture(scope="module")
def docs():
    return experiments.load()


@pytest.fixture
def holds(docs):
    def evaluate(entry: str, claim: str) -> bool:
        return experiments.BY_NAME[entry].claims[claim](
            experiments.Run(docs[entry], docs)
        )

    return evaluate


class TestFigure4To7Q1Unloaded:
    """Q1: the optimizer is right, so everything is flat/linear."""

    def test_fig4_cost_estimate_flat(self, holds):
        assert holds("q1_unloaded", "fig4_cost_estimate_flat")

    def test_fig5_speed_stable(self, holds):
        assert holds("q1_unloaded", "fig5_speed_stable")

    def test_fig6_indicator_tracks_actual(self, holds):
        assert holds("q1_unloaded", "fig6_indicator_tracks_actual")

    def test_fig6_indicator_beats_optimizer_line(self, holds):
        assert holds("q1_unloaded", "fig6_indicator_beats_optimizer_line")

    def test_fig6_optimizer_line_not_far_off(self, holds):
        assert holds("q1_unloaded", "fig6_optimizer_line_not_far_off")

    def test_fig7_percent_nearly_linear(self, holds):
        assert holds("q1_unloaded", "fig7_percent_nearly_linear")


class TestFigure9To12Q2Unloaded:
    """Q2: the default 1/3 selectivity wrecks the initial estimate; the
    indicator learns during the lineitem scan and is exact afterwards."""

    def test_fig9_initial_estimate_too_low(self, holds):
        assert holds("q2_unloaded", "fig9_initial_estimate_too_low")

    def test_fig9_flat_during_first_join(self, holds):
        assert holds("q2_unloaded", "fig9_flat_during_first_join")

    def test_fig9_estimate_nondecreasing(self, holds):
        assert holds("q2_unloaded", "fig9_estimate_nondecreasing")

    def test_fig9_reaches_exact_before_completion(self, holds):
        assert holds("q2_unloaded", "fig9_reaches_exact_before_completion")

    def test_fig11_converges_to_actual_remaining(self, holds):
        assert holds("q2_unloaded", "fig11_converges_to_actual_remaining")

    def test_fig11_indicator_much_better_than_optimizer(self, holds):
        assert holds("q2_unloaded", "fig11_indicator_much_better_than_optimizer")

    def test_fig12_percent_increases(self, holds):
        assert holds("q2_unloaded", "fig12_percent_increases")

    def test_four_segments_like_figure3(self, holds):
        assert holds("q2_unloaded", "four_segments_like_figure3")


class TestFigure13To16Q2IoInterference:
    """Q2 under a concurrent file copy (slowdown window [120, 400))."""

    def test_query_runs_longer_than_unloaded(self, holds):
        assert holds("q2_io_interference", "query_runs_longer_than_unloaded")

    def test_fig13_learning_slows_during_copy(self, holds):
        assert holds("q2_io_interference", "fig13_same_exact_cost")
        assert holds("q2_io_interference", "fig13_learning_slows_during_copy")

    def test_fig14_speed_drops_during_copy(self, holds):
        assert holds("q2_io_interference", "fig14_speed_drops_during_copy")

    def test_fig15_remaining_jumps_at_copy_start(self, holds):
        assert holds("q2_io_interference", "fig15_remaining_jumps_at_copy_start")

    def test_fig15_remaining_drops_after_copy_ends(self, holds):
        assert holds("q2_io_interference", "fig15_remaining_drops_after_copy_ends")

    def test_fig15_indicator_beats_optimizer(self, holds):
        assert holds("q2_io_interference", "fig15_indicator_beats_optimizer")

    def test_fig16_percent_still_monotone(self, holds):
        assert holds("q2_io_interference", "fig16_percent_still_monotone")


class TestFigure17Q3Correlation:
    """Q3 on correlated data: the join-cardinality estimate is too low,
    detected while the first join's probe runs."""

    def test_initial_estimate_too_low(self, holds):
        assert holds("q3_correlation", "initial_estimate_too_low")

    def test_estimate_ramps_to_exact(self, holds):
        assert holds("q3_correlation", "estimate_ramps_to_exact")

    def test_estimate_flat_after_reaching_exact(self, holds):
        assert holds("q3_correlation", "estimate_flat_after_reaching_exact")


class TestFigure18Q4TwoErrors:
    """Q4: both joins' estimates are wrong; the indicator adjusts twice."""

    def test_two_distinct_learning_phases(self, holds):
        assert holds("q4_two_errors", "two_distinct_learning_phases")

    def test_converges_to_exact(self, holds):
        assert holds("q4_two_errors", "converges_to_exact")


class TestFigure19And20Q5:
    """Q5: CPU-bound nested loops; byte-progress still gives good
    remaining-time estimates, and the indicator adapts to a CPU hog."""

    def test_fig19_indicator_tracks_actual(self, holds):
        assert holds("q5_unloaded", "fig19_indicator_tracks_actual")

    def test_fig20_query_slows_down(self, holds):
        assert holds("q5_cpu_interference", "fig20_query_slows_down")

    def test_fig20_remaining_jumps_at_hog_start(self, holds):
        assert holds("q5_cpu_interference", "fig20_remaining_jumps_at_hog_start")

    def test_fig20_tracks_actual_soon_after_onset(self, holds):
        assert holds("q5_cpu_interference", "fig20_tracks_actual_soon_after_onset")


class TestOptimizerBeatenEverywhere:
    """The paper's recurring claim: the indicator's remaining-time curve is
    closer to the actual line than the optimizer's, point by point."""

    def test_pointwise_wins_q2(self, holds):
        assert holds("q2_unloaded", "pointwise_wins_over_optimizer")


def test_every_registry_claim_holds_on_the_committed_documents():
    """Figures, Table 1 and every ablation: no claim is broken."""
    rows = experiments.tally()
    assert len(rows) == sum(len(e.claims) for e in experiments.ENTRIES)
    assert [(entry, claim) for entry, claim, verdict in rows if verdict != "held"] == []
