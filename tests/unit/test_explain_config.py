"""Unit tests for EXPLAIN rendering and configuration plumbing."""

import pytest

from repro.config import (
    CostModelConfig,
    PlannerConfig,
    ProgressConfig,
    SystemConfig,
)
from repro.core.segments import build_segments
from repro.obs.bus import TraceBus
from repro.planner.explain import explain
from repro.workloads import queries, tpcr


class TestExplain:
    def test_scan_line_includes_estimates(self, tiny_tpcr):
        plan = tiny_tpcr.prepare("select custkey from customer")
        text = explain(plan.root)
        assert "SeqScan(customer)" in text
        assert "rows=" in text and "width=" in text

    def test_filters_rendered(self, tiny_tpcr):
        plan = tiny_tpcr.prepare("select custkey from customer where nationkey < 5")
        assert "filter: (c" in explain(plan.root) or "filter:" in explain(plan.root)

    def test_join_keys_rendered(self, tiny_tpcr):
        plan = tiny_tpcr.prepare(queries.Q2)
        text = explain(plan.root)
        assert "HashJoin" in text
        assert "on" in text

    def test_segments_shown_after_segmentation(self, tiny_tpcr):
        plan = tiny_tpcr.prepare(queries.Q2)
        build_segments(plan.root)
        text = explain(plan.root)
        assert "[segment 0]" in text

    def test_indentation_reflects_tree_depth(self, tiny_tpcr):
        plan = tiny_tpcr.prepare(queries.Q2)
        lines = explain(plan.root).splitlines()
        depths = [len(line) - len(line.lstrip()) for line in lines]
        assert depths[0] == 0
        assert max(depths) >= 4

    def test_aggregate_and_distinct_labels(self, tiny_tpcr):
        plan = tiny_tpcr.prepare(
            "select distinct nationkey from customer"
        )
        assert "Distinct" in explain(plan.root)
        plan = tiny_tpcr.prepare(
            "select nationkey, count(*) from customer group by nationkey"
        )
        assert "HashAggregate" in explain(plan.root)


class TestConfig:
    def test_with_planner_replaces_only_planner(self):
        config = SystemConfig()
        updated = config.with_planner(enable_hashjoin=False)
        assert updated.planner.enable_hashjoin is False
        assert config.planner.enable_hashjoin is True
        assert updated.cost is config.cost

    def test_with_progress(self):
        config = SystemConfig().with_progress(speed_window=42.0)
        assert config.progress.speed_window == 42.0

    def test_with_cost(self):
        config = SystemConfig().with_cost(seq_page_read=1.0)
        assert config.cost.seq_page_read == 1.0

    def test_configs_frozen(self):
        config = SystemConfig()
        with pytest.raises(Exception):
            config.page_size = 1

    def test_default_selectivity_is_one_third(self):
        # The constant the paper's Figures 9/13/17/18 hinge on.
        assert PlannerConfig().default_selectivity == pytest.approx(1.0 / 3.0)

    def test_progress_defaults_match_paper(self):
        progress = ProgressConfig()
        assert progress.update_interval == 10.0  # Section 5 pacing
        assert progress.speed_window == 10.0  # Section 4.6's T

    def test_cost_ratios_sane(self):
        cost = CostModelConfig()
        assert cost.random_page_read > cost.seq_page_read
        assert cost.cpu_tuple < cost.seq_page_read

    def test_estimator_name_validated(self):
        # An unknown name fails at indicator construction (submit), whether
        # it comes from the config or from the per-query argument.
        config = SystemConfig().with_progress(estimator="bogus")
        db = tpcr.build_database(scale=0.001, subset_rows=20, config=config)
        with pytest.raises(ValueError, match="unknown estimator 'bogus'"):
            db.connect().submit("select * from customer", keep_rows=False)
        db = tpcr.build_database(scale=0.001, subset_rows=20)
        with pytest.raises(ValueError, match="unknown estimator 'nope'"):
            db.connect().submit("select * from customer", estimator="nope")

    def test_refine_mode_knob_is_gone(self):
        # The alias field was removed, not silently ignored.
        with pytest.raises(TypeError):
            SystemConfig().with_progress(refine_mode="paper")

    def test_never_set_knobs_are_gone_and_env_still_enables_tracing(
        self, monkeypatch
    ):
        with pytest.raises(TypeError):
            SystemConfig().with_progress(trace_enabled=True)
        with pytest.raises(TypeError):
            SystemConfig().with_service(shed_overrun_fraction=0.2)
        db = tpcr.build_database(scale=0.001, subset_rows=20)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        plain = db.connect().submit("select * from customer", keep_rows=False)
        assert plain.task.trace_bus is None
        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = db.connect().submit("select * from customer", keep_rows=False)
        assert isinstance(traced.task.trace_bus, TraceBus)
