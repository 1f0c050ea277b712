"""Unit tests for the pluggable estimator layer: the registry, the three
blend rules, history-learned corrections and the online selector."""

import pytest

from repro.core.segments import SegmentInput, SegmentSpec
from repro.estimators import (
    DEFAULT_ESTIMATOR,
    ENSEMBLE,
    EstimatorContext,
    estimator_names,
    make_estimator,
    register_estimator,
)
from repro.estimators.base import EstimateSnapshot, Estimator, SegmentEstimate
from repro.estimators.ensemble import SWITCH_MARGIN, EnsembleEstimator
from repro.estimators.history import (
    MAX_CORRECTION,
    MIN_CORRECTION,
    HistoryEstimator,
    HistoryStore,
    signature_of,
)
from repro.estimators.refinement import (
    DriverNodeEstimator,
    PaperEstimator,
    TotalGetNextEstimator,
)
from repro.executor.work import WorkTracker


def make_spec(seg_id=0, est_out=100.0, final=False):
    inputs = [
        SegmentInput(0, "base", "t", est_rows=1000.0, est_width=40.0, dominant=True)
    ]
    return SegmentSpec(
        id=seg_id,
        label=f"seg{seg_id}",
        inputs=inputs,
        est_output_rows=est_out,
        est_output_width=50.0,
        final=final,
        card_factor=est_out / 1000.0,
    )


def make_tracker(specs):
    return WorkTracker([len(s.inputs) for s in specs], final_segment=specs[-1].id)


def partial_run(specs=None):
    """One segment at p = 0.4 with y = 80 observed outputs (E1 = 100)."""
    specs = specs or [make_spec(final=True)]
    tracker = make_tracker(specs)
    tracker.input_rows(0, 0, 400, 400 * 40.0)
    tracker.output_rows(0, 80, 80 * 50.0)
    return specs, tracker


class TestRegistry:
    def test_builtins_registered(self):
        names = estimator_names()
        assert {"paper", "dne", "tgn", "history", ENSEMBLE} <= set(names)
        assert names[0] == "paper"  # registration order = tie-break order
        assert ENSEMBLE not in estimator_names(include_ensemble=False)

    def test_default_is_paper(self):
        assert DEFAULT_ESTIMATOR == "paper"

    def test_unknown_name_raises(self):
        specs, tracker = partial_run()
        with pytest.raises(ValueError, match="unknown estimator"):
            make_estimator("nope", specs, tracker)

    def test_ensemble_name_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            register_estimator(ENSEMBLE, lambda specs, tracker, ctx: None)

    def test_ensemble_races_every_registered_candidate(self):
        specs, tracker = partial_run()
        est = make_estimator(ENSEMBLE, specs, tracker)
        assert isinstance(est, EnsembleEstimator)
        candidate_names = tuple(c.name for c in est.candidates)
        assert candidate_names == estimator_names(include_ensemble=False)

    def test_history_factory_binds_context_store(self):
        specs, tracker = partial_run()
        store = HistoryStore()
        est = make_estimator(
            "history", specs, tracker, EstimatorContext(history=store)
        )
        assert isinstance(est, HistoryEstimator)
        assert est.store is store


class TestBlendRules:
    # At p = 0.4, y = 80, E1 = 100 (partial_run's counters).

    def test_paper_blend(self):
        est = PaperEstimator(*partial_run())
        seg = est.snapshot().segments[0]
        assert seg.est_output_rows == pytest.approx(80 + 0.6 * 100.0)

    def test_dne_extrapolates(self):
        est = DriverNodeEstimator(*partial_run())
        seg = est.snapshot().segments[0]
        assert seg.est_output_rows == pytest.approx(80 / 0.4)

    def test_dne_falls_back_to_e1_at_zero_progress(self):
        specs = [make_spec(final=True)]
        est = DriverNodeEstimator(specs, make_tracker(specs))
        assert est.snapshot().segments[0].est_output_rows == pytest.approx(100.0)

    def test_tgn_never_extrapolates(self):
        est = TotalGetNextEstimator(*partial_run())
        seg = est.snapshot().segments[0]
        assert seg.est_output_rows == pytest.approx(100.0)

    def test_tgn_rides_observed_outputs_past_e1(self):
        specs = [make_spec(final=True)]
        tracker = make_tracker(specs)
        tracker.input_rows(0, 0, 400, 400 * 40.0)
        tracker.output_rows(0, 250, 250 * 50.0)  # y already beyond E1
        est = TotalGetNextEstimator(specs, tracker)
        assert est.snapshot().segments[0].est_output_rows == pytest.approx(250.0)

    def test_provenance_is_the_registry_name(self):
        assert PaperEstimator(*partial_run()).provenance == "paper"
        assert DriverNodeEstimator(*partial_run()).provenance == "dne"

    def test_plain_estimators_expose_no_candidates(self):
        assert PaperEstimator(*partial_run()).candidate_estimates() == ()


class TestHistoryStore:
    SIG = ("seg0", (("base", "t"),))

    def test_unseen_signature_is_neutral(self):
        assert HistoryStore().correction(self.SIG) == pytest.approx(1.0)

    def test_single_observation_ratio(self):
        store = HistoryStore()
        store.observe(self.SIG, estimated=100.0, actual=200.0)
        assert store.correction(self.SIG) == pytest.approx(2.0)
        assert store.observations(self.SIG) == 1

    def test_corrections_are_geometric_means(self):
        store = HistoryStore()
        store.observe(self.SIG, estimated=100.0, actual=200.0)  # ratio 2
        store.observe(self.SIG, estimated=100.0, actual=800.0)  # ratio 8
        assert store.correction(self.SIG) == pytest.approx(4.0)

    def test_corrections_clamped_both_ways(self):
        store = HistoryStore()
        store.observe(self.SIG, estimated=1.0, actual=1e9)
        assert store.correction(self.SIG) == pytest.approx(MAX_CORRECTION)
        other = ("seg1", ())
        store.observe(other, estimated=1e9, actual=1.0)
        assert store.correction(other) == pytest.approx(MIN_CORRECTION)

    def test_degenerate_observations_ignored(self):
        store = HistoryStore()
        store.observe(self.SIG, estimated=0.5, actual=100.0)
        store.observe(self.SIG, estimated=100.0, actual=0.0)
        assert len(store) == 0

    def test_signature_is_structural(self):
        spec = make_spec(final=True)
        assert signature_of(spec) == ("seg0", (("base", "t"),))


class TestHistoryEstimator:
    def test_empty_store_is_exactly_the_paper_blend(self):
        specs, tracker = partial_run()
        learned = HistoryEstimator(specs, tracker, HistoryStore())
        baseline = PaperEstimator(specs, tracker)
        assert learned.snapshot() == baseline.snapshot()

    def test_learned_correction_scales_e1(self):
        specs, tracker = partial_run()
        store = HistoryStore()
        store.observe(signature_of(specs[0]), estimated=100.0, actual=200.0)
        est = HistoryEstimator(specs, tracker, store)
        seg = est.snapshot().segments[0]
        # Paper blend with E1 doubled: y + (1-p) * 2*E1.
        assert seg.est_output_rows == pytest.approx(80 + 0.6 * 200.0)

    def test_corrections_bound_at_construction(self):
        specs, tracker = partial_run()
        store = HistoryStore()
        est = HistoryEstimator(specs, tracker, store)
        before = est.snapshot()
        # A mid-flight store update must not move this query's estimate.
        store.observe(signature_of(specs[0]), estimated=100.0, actual=900.0)
        assert est.snapshot() == before

    def test_on_finish_records_only_finished_segments(self):
        specs = [make_spec(seg_id=0), make_spec(seg_id=1, final=True)]
        tracker = make_tracker(specs)
        tracker.input_rows(0, 0, 1000, 1000 * 40.0)
        tracker.output_rows(0, 321, 321 * 50.0)
        tracker.segment_finished(0)
        store = HistoryStore()
        HistoryEstimator(specs, tracker, store).on_finish()
        assert store.observations(signature_of(specs[0])) == 1
        assert store.observations(signature_of(specs[1])) == 0
        # The stored ratio is actual / plan-time estimate: 321 / 100.
        assert store.correction(signature_of(specs[0])) == pytest.approx(3.21)


class Scripted(Estimator):
    """A candidate whose per-segment predictions the test scripts."""

    def __init__(self, name, specs, tracker):
        super().__init__(specs, tracker)
        self.name = name
        self.outputs = {}  # seg id -> predicted output rows
        self.statuses = {}  # seg id -> status
        self.total = 1000.0
        self.done = 0.0

    def snapshot(self):
        segments = [
            SegmentEstimate(
                spec=spec,
                status=self.statuses.get(spec.id, "running"),
                inputs=[],
                p=0.5,
                est_output_rows=self.outputs.get(spec.id, 100.0),
                est_output_width=50.0,
                est_cost_bytes=self.total,
                done_bytes=self.done,
            )
            for spec in self._specs
        ]
        return EstimateSnapshot(
            segments=segments,
            est_total_bytes=self.total,
            done_bytes=self.done,
            current_segment=None,
        )


class TestEnsembleSelector:
    def _pair(self):
        specs = [make_spec(final=True)]
        tracker = make_tracker(specs)
        a = Scripted("a", specs, tracker)
        b = Scripted("b", specs, tracker)
        return specs, tracker, a, b

    def test_requires_candidates(self):
        specs = [make_spec(final=True)]
        with pytest.raises(ValueError):
            EnsembleEstimator(specs, make_tracker(specs), [])

    def test_evidence_free_selector_is_the_first_candidate(self):
        specs, tracker, a, b = self._pair()
        ens = EnsembleEstimator(specs, tracker, [a, b])
        ens.snapshot()
        assert ens.selected_name == "a"
        assert ens.provenance == "ensemble:a"

    def test_switches_past_the_margin(self):
        specs, tracker, a, b = self._pair()
        a.outputs[0] = 1000.0  # will be off by ln(10) > ln 2
        b.outputs[0] = 100.0  # spot on
        ens = EnsembleEstimator(specs, tracker, [a, b])
        ens.snapshot()  # predictions recorded while running
        a.statuses[0] = "finished"
        a.outputs[0] = 100.0  # the finished (exact) cardinality
        b.statuses[0] = "finished"
        ens.snapshot()  # settle + re-select
        assert ens.scores["a"] > SWITCH_MARGIN
        assert ens.scores["b"] == pytest.approx(0.0)
        assert ens.selected_name == "b"
        assert ens.provenance == "ensemble:b"

    def test_keeps_incumbent_within_the_margin(self):
        specs, tracker, a, b = self._pair()
        a.outputs[0] = 150.0  # off by ln(1.5) < ln 2
        b.outputs[0] = 100.0
        ens = EnsembleEstimator(specs, tracker, [a, b])
        ens.snapshot()
        a.statuses[0] = "finished"
        a.outputs[0] = 100.0
        b.statuses[0] = "finished"
        ens.snapshot()
        assert 0.0 < ens.scores["a"] < SWITCH_MARGIN
        assert ens.selected_name == "a"

    def test_reported_fraction_never_decreases(self):
        specs, tracker, a, b = self._pair()
        ens = EnsembleEstimator(specs, tracker, [a, b])
        a.done, a.total = 500.0, 1000.0
        first = ens.snapshot()
        assert first.fraction_done == pytest.approx(0.5)
        a.total = 2000.0  # raw fraction would drop to 0.25
        second = ens.snapshot()
        assert second.est_total_bytes == pytest.approx(1000.0)
        assert second.fraction_done == pytest.approx(0.5)

    def test_candidate_estimates_expose_raw_streams(self):
        specs, tracker, a, b = self._pair()
        ens = EnsembleEstimator(specs, tracker, [a, b])
        a.done, a.total = 500.0, 1000.0
        ens.snapshot()
        a.total = 2000.0  # selected stream clamps; candidates must not
        ens.snapshot()
        cands = ens.candidate_estimates()
        assert [c.name for c in cands] == ["a", "b"]
        assert [c.selected for c in cands] == [True, False]
        by_name = {c.name: c for c in cands}
        assert by_name["a"].est_total_bytes == pytest.approx(2000.0)
        assert by_name["a"].fraction_done == pytest.approx(0.25)

    def test_on_finish_fans_out_to_candidates(self):
        specs, tracker = partial_run()
        store = HistoryStore()
        ens = make_estimator(
            ENSEMBLE, specs, tracker, EstimatorContext(history=store)
        )
        tracker.input_rows(0, 0, 600, 600 * 40.0)
        tracker.output_rows(0, 120, 120 * 50.0)
        tracker.finish_all()
        ens.on_finish()
        assert store.observations(signature_of(specs[0])) == 1
