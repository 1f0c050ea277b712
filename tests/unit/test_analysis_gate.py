"""Unit tests: the pre-execution verification gate and runtime guard."""

from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.analysis.gate import (
    PlanVerificationError,
    PlanVerificationWarning,
    gate_segments,
    resolve_verify_mode,
)
from repro.config import SystemConfig
from repro.core.indicator import ProgressIndicator
from repro.core.segments import build_segments
from repro.database import Database
from repro.errors import ExecutionError, ProgressError
from repro.executor.base import ExecContext
from repro.executor.runtime import check_tracker_alignment, run_query
from repro.planner.optimizer import Optimizer
from repro.sql.binder import Binder
from repro.sql.parser import parse_select
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER


def make_db(**config_kwargs) -> Database:
    db = Database(config=SystemConfig(**config_kwargs))
    db.create_table(
        "t",
        Schema([Column("a", INTEGER), Column("b", INTEGER)]),
        [(i, i % 5) for i in range(120)],
    )
    db.create_table(
        "u",
        Schema([Column("a", INTEGER), Column("c", INTEGER)]),
        [(i % 60, i) for i in range(200)],
    )
    db.analyze()
    return db


def private_plan(db, sql):
    """A plan no statement cache holds (a prepared one is shared and
    already segmented), for a test that corrupts it."""
    return Optimizer(db.config).plan(Binder(db.catalog).bind(parse_select(sql)))


def broken_segments(db):
    """A segmented plan with one invariant deliberately violated."""
    planned = db.prepare("select t.b, count(*) from t group by t.b")
    specs = build_segments(planned.root)
    specs[0].card_factor *= 7.0
    return planned.root, specs


class TestResolveVerifyMode:
    def test_env_var_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "off")
        assert resolve_verify_mode(SystemConfig()) == "off"

    def test_config_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        config = SystemConfig().with_progress(verify_mode="strict")
        assert resolve_verify_mode(config) == "strict"

    def test_default_is_warn(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert resolve_verify_mode(SystemConfig()) == "warn"
        assert resolve_verify_mode(None) == "warn"

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "loud")
        with pytest.raises(ProgressError):
            resolve_verify_mode(SystemConfig())


def test_importing_the_gate_does_not_load_the_linter():
    """Every monitored query imports ``repro.analysis.gate``; the lint
    driver and its rules are for whoever lints."""
    src = Path(__file__).resolve().parents[2] / "src"
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.analysis.gate; "
         "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": str(src)},
    ).stdout
    assert loaded.strip() == str(
        ["repro.analysis", "repro.analysis.gate", "repro.analysis.invariants"]
    )


class TestGateSegments:
    def test_off_skips_verification(self):
        root, specs = broken_segments(make_db())
        assert gate_segments(root, specs, mode="off") == []

    def test_warn_reports_and_continues(self):
        root, specs = broken_segments(make_db())
        with pytest.warns(PlanVerificationWarning):
            violations = gate_segments(root, specs, mode="warn")
        assert violations and violations[0].rule == "card-factor"

    def test_strict_raises(self):
        root, specs = broken_segments(make_db())
        with pytest.raises(PlanVerificationError) as exc:
            gate_segments(root, specs, mode="strict", label="broken")
        assert exc.value.label == "broken"
        assert any(v.rule == "card-factor" for v in exc.value.violations)

    def test_clean_plan_passes_strict(self):
        db = make_db()
        planned = db.prepare("select * from t")
        specs = build_segments(planned.root)
        assert gate_segments(planned.root, specs, mode="strict") == []


class TestEngineWiring:
    def test_indicator_gates_on_construction(self, monkeypatch):
        """A plan whose annotations were corrupted after planning is
        rejected before execution starts (strict mode)."""
        monkeypatch.setenv("REPRO_VERIFY", "strict")
        db = make_db()
        planned = private_plan(db, "select t.a, u.c from t, u where t.a = u.a")
        # Corrupt the plan the way a buggy planner rewrite would; the
        # poisoned estimate survives the indicator's own re-segmentation.
        planned.root.est_rows = float("nan")
        with pytest.raises(PlanVerificationError):
            ProgressIndicator(planned, db.clock, db.config)

    def test_indicator_warn_mode_still_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "warn")
        db = make_db()
        planned = private_plan(db, "select t.a, u.c from t, u where t.a = u.a")
        planned.root.est_rows = float("nan")
        with pytest.warns(PlanVerificationWarning):
            ProgressIndicator(planned, db.clock, db.config)

    def test_fast_path_gated_in_strict_mode(self, monkeypatch):
        """Database.execute verifies before running when strict."""
        monkeypatch.setenv("REPRO_VERIFY", "strict")
        db = make_db()
        result = db.connect().execute("select count(*) from t")
        assert result.rows == [(120,)]

    def test_database_verify_reports_clean(self):
        db = make_db()
        assert db.verify("select t.b, count(*) from t group by t.b") == []


class TestTrackerAlignment:
    def test_mismatched_tracker_rejected(self):
        """Running a plan against a tracker built for a different plan
        fails fast instead of corrupting counters."""
        db = make_db()
        small = db.prepare("select * from t")
        big = db.prepare("select t.b, count(*) from t, u where t.a = u.a group by t.b")
        indicator = ProgressIndicator(small, db.clock, db.config)
        build_segments(big.root)  # annotate with ids the small tracker lacks
        ctx = ExecContext(
            db.clock, db.disk, db.buffer_pool, db.config, tracker=indicator.tracker
        )
        with pytest.raises(ExecutionError):
            run_query(big, ctx)

    def test_aligned_tracker_passes(self):
        db = make_db()
        planned = db.prepare("select t.b, count(*) from t group by t.b")
        indicator = ProgressIndicator(planned, db.clock, db.config)
        check_tracker_alignment(planned.root, indicator.tracker)
