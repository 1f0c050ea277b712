"""Unit tests: a statement is planned once per database.

``Database.prepare`` keeps each plan under its exact text and the config,
with the read set of the tables it planned against.  A hit re-checks the
read set, so whatever changes what a plan read re-plans it exactly once;
a plan is shared by every submission of its text, and what depends only
on the plan (segments, gate verdict, admission cost) is kept on it.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.analysis import gate
from repro.analysis.gate import PlanVerificationError, PlanVerificationWarning
from repro.core import segments
from repro.database import STATEMENT_CACHE_SIZE, Database
from repro.errors import BindError, CatalogError, ParseError, PlanError
from repro.executor import fused
from repro.executor.base import ExecContext
from repro.executor.work import WorkTracker
from repro.planner.optimizer import Optimizer, plan_values
from repro.sql.binder import Binder
from repro.sql.parser import parse_select
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER
from repro.txn.transaction import Transaction

SQL = "select t.a, u.c from t, u where t.a = u.a and t.b < 3"
IN_SQL = "select a from t where a in (select a from u where c > 20)"

T_SCHEMA = Schema([Column("a", INTEGER), Column("b", INTEGER)])
U_SCHEMA = Schema([Column("a", INTEGER), Column("c", INTEGER)])


def make_db(**config) -> Database:
    db = Database()
    if config:
        db.config = dataclasses.replace(db.config, **config)
    db.create_table("t", T_SCHEMA, [(i, i % 5) for i in range(300)])
    db.create_table("u", U_SCHEMA, [(i % 60, i) for i in range(400)])
    db.create_table("w", U_SCHEMA, [(i, i) for i in range(10)])
    db.create_index("t", "a")
    db.analyze()
    return db


def private_plan(db, sql):
    return Optimizer(db.config).plan(Binder(db.catalog).bind(parse_select(sql)))


def counts(db) -> tuple[int, int]:
    info = db.cache_info().statements
    return info.hits, info.misses


class TestPlanOnce:
    def test_the_same_text_is_the_same_plan(self):
        db = make_db()
        first = db.prepare(SQL)
        assert db.prepare(SQL) is first
        assert counts(db) == (1, 1)
        assert first.segment_specs is not None  # segmented once, at prepare

    def test_the_key_is_the_exact_text(self):
        db = make_db()
        first, spaced = db.prepare(SQL), db.prepare(SQL + " ")
        assert spaced is not first
        assert plan_values(spaced) == plan_values(first)
        assert counts(db) == (0, 2)

    def test_every_sql_path_plans_once(self):
        db = make_db()
        session = db.connect()
        session.submit(SQL).result()
        session.submit(SQL, monitor=False).result()
        db.service().submit(SQL).result()
        db.connect().execute(SQL)
        db.explain(SQL)
        assert db.verify(SQL) == []
        hits, misses = counts(db)
        assert misses == 1 and hits == 5

    def test_cache_info_has_both_caches(self):
        db = make_db()
        db.prepare(SQL)
        info = db.cache_info()
        assert info.statements == (0, 1, STATEMENT_CACHE_SIZE, 1)
        assert info.programs == fused.code_cache_info()
        assert STATEMENT_CACHE_SIZE == 1024


def _analyze(db):
    db.analyze()


def _analyze_one(db):
    db.analyze("u")


def _create_index(db):
    db.create_index("u", "a")


def _drop_and_recreate(db):
    db.catalog.drop_table("u")
    db.create_table("u", U_SCHEMA, [(i % 60, i) for i in range(400)])
    db.analyze("u")


def _update(db):
    txn = Transaction(db)
    assert txn.update("u", {"c": lambda row: row[1] + 1}) > 0
    txn.commit()


def _bulk_load(db):
    db.catalog.get_table("u").heap.bulk_load([(7, 7)])


def _config(db):
    db.config = dataclasses.replace(db.config, work_mem_pages=7)


CHANGES = {
    "analyze()": _analyze,
    "analyze(t)": _analyze_one,
    "create_index": _create_index,
    "drop and recreate": _drop_and_recreate,
    "transaction DML": _update,
    "heap.bulk_load": _bulk_load,
    "db.config": _config,
}


class TestInvalidation:
    @pytest.mark.parametrize("sql", [SQL, IN_SQL], ids=["join", "in-subquery"])
    @pytest.mark.parametrize("change", CHANGES)
    def test_a_change_to_what_the_plan_read_replans_once(self, change, sql):
        db = make_db()
        old = db.prepare(sql)
        CHANGES[change](db)
        new = db.prepare(sql)
        assert new is not old
        assert db.prepare(sql) is new
        assert counts(db) == (1, 2)
        # The new plan is what planning from scratch now gives.
        fresh = private_plan(db, sql)
        segments.planned_segments(fresh)
        assert plan_values(new) == plan_values(fresh)

    def test_a_table_the_plan_did_not_read_changes_nothing(self):
        db = make_db()
        old = db.prepare(SQL)
        db.analyze("w")
        db.catalog.get_table("w").heap.bulk_load([(1, 1)])
        assert db.prepare(SQL) is old

    def test_dropping_a_read_table_fails_the_next_prepare(self):
        db = make_db()
        db.prepare(SQL)
        db.catalog.drop_table("u")
        with pytest.raises(CatalogError):
            db.prepare(SQL)

    @pytest.mark.parametrize(
        "sql, error",
        [
            ("select from t", ParseError),
            ("select nosuch from t", BindError),
            ("select * from later", CatalogError),
        ],
    )
    def test_errors_are_not_cached(self, sql, error):
        db = make_db()
        for _ in range(2):
            with pytest.raises(error):
                db.prepare(sql)
        assert db.cache_info().statements.currsize == 0
        if error is CatalogError:
            db.create_table("later", T_SCHEMA, [(1, 2)])
            assert db.connect().execute(sql).rows == [(1, 2)]


class TestBound:
    def test_the_oldest_is_evicted(self, monkeypatch):
        import repro.database

        monkeypatch.setattr(repro.database, "STATEMENT_CACHE_SIZE", 2)
        db = make_db()
        texts = [f"select a from t where b = {n}" for n in range(3)]
        first = db.prepare(texts[0])
        db.prepare(texts[1])
        db.prepare(texts[2])
        assert db.cache_info().statements.currsize == 2
        assert db.prepare(texts[0]) is not first  # evicted, planned again
        assert counts(db) == (0, 4)

    def test_a_hit_is_the_most_recently_used(self, monkeypatch):
        import repro.database

        monkeypatch.setattr(repro.database, "STATEMENT_CACHE_SIZE", 2)
        db = make_db()
        a, b, c = (f"select a from t where b = {n}" for n in range(3))
        planned_a = db.prepare(a)
        planned_b = db.prepare(b)
        assert db.prepare(a) is planned_a  # now b is the oldest
        db.prepare(c)
        assert db.prepare(a) is planned_a
        assert db.prepare(b) is not planned_b


class TestStrictRecheck:
    def test_an_edited_cached_plan_is_caught(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "strict")
        db = make_db()
        db.prepare(SQL).root.est_rows = 1e9
        with pytest.raises(PlanError, match="differs from a fresh plan"):
            db.prepare(SQL)

    def test_without_strict_a_hit_is_not_replanned(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "warn")
        db = make_db()
        planned = db.prepare(SQL)
        planned.root.est_rows = 1e9
        assert db.prepare(SQL) is planned


def _fused_keys(db, planned):
    specs = planned.segment_specs
    tracker = WorkTracker([len(s.inputs) for s in specs], specs[-1].id, db.clock)
    keys = []
    for monitored in (False, True):
        ctx = ExecContext(
            db.clock, db.disk, db.buffer_pool, db.config,
            tracker=tracker if monitored else None,
        )
        keys.append(fused._plan_key(planned.root, ctx, [], []))
    return keys


class TestSharedPlans:
    @pytest.mark.parametrize("sql", [SQL, IN_SQL], ids=["join", "in-subquery"])
    def test_verify_and_explain_leave_a_cached_plan_alone(self, sql):
        db = make_db()
        planned = db.prepare(sql)
        values, keys = plan_values(planned), _fused_keys(db, planned)
        assert db.verify(sql) == []
        db.explain(sql)
        db.connect().submit(sql).result()
        assert db.prepare(sql) is planned
        assert plan_values(planned) == values
        assert _fused_keys(db, planned) == keys

    @pytest.mark.parametrize("sql", [SQL, IN_SQL], ids=["join", "in-subquery"])
    def test_two_tasks_sharing_a_plan_run_as_two_plans(self, sql):
        """Interleaved in one session, two submissions of one text share
        the cached plan; on a twin database the same two run on plans of
        their own.  Everything observable is the same."""
        runs = []
        for shared in (True, False):
            db = make_db(work_mem_pages=1)  # partitioned hash joins
            session = db.connect(quantum_pages=1)
            plans = (
                [sql, sql] if shared else [private_plan(db, sql) for _ in range(2)]
            )
            handles = [session.submit(p, name=f"q{i}") for i, p in enumerate(plans)]
            session.run()
            tasks = [h.task for h in handles]
            assert (tasks[0].planned is tasks[1].planned) == shared
            assert len(tasks[0].slices) > 1  # they did interleave
            runs.append((
                [h.result().rows for h in handles],
                [h.log for h in handles],
                [(s.task, s.started_at, s.ended_at, s.pages) for s in session.service.scheduler.slices],
                db.clock.now,
                dict(db.clock.cost_charged),
                db.disk.io_counters(),
                db.disk.temp_file_count(),
            ))
        assert runs[0] == runs[1]


class TestPerPlanMemos:
    def test_the_gate_verifies_a_plan_once(self, monkeypatch):
        calls = []
        real = gate.verify_segments
        monkeypatch.setattr(
            gate, "verify_segments",
            lambda root, specs: calls.append(root) or real(root, specs),
        )
        db = make_db()
        session = db.connect()
        for _ in range(3):
            session.submit(SQL).result()
        assert len(calls) == 1

    def test_a_stored_verdict_is_enforced_on_every_submission(self, monkeypatch):
        db = make_db()
        planned = private_plan(db, SQL)
        planned.root.est_rows = float("nan")  # a violation the gate finds
        monkeypatch.setenv("REPRO_VERIFY", "warn")
        for _ in range(2):
            with pytest.warns(PlanVerificationWarning):
                violations = gate.gate_plan(planned, db.config)
            assert violations and violations is planned.violations
        monkeypatch.setenv("REPRO_VERIFY", "strict")
        for _ in range(2):
            with pytest.raises(PlanVerificationError):
                db.connect().submit(planned)
        monkeypatch.setenv("REPRO_VERIFY", "off")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gate.gate_plan(planned, db.config) == []

    def test_the_admission_cost_is_computed_once(self, monkeypatch):
        calls = []
        real = segments.initial_total_cost_bytes
        monkeypatch.setattr(
            segments, "initial_total_cost_bytes",
            lambda specs: calls.append(specs) or real(specs),
        )
        db = make_db()
        service = db.service()
        handles = [service.submit(SQL) for _ in range(3)]
        service.run()
        assert len(calls) == 1
        planned = handles[0].task.planned
        pages = planned.initial_cost_pages
        assert pages == real(planned.segment_specs) / db.config.page_size
        for handle in handles:
            assert handle.predicted_cost_pages == pages
            assert handle.task.indicator.initial_cost_pages == pages
