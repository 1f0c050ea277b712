"""Unit tests for the stable session API (repro.api)."""

from __future__ import annotations

import pytest

import repro
import repro.service
from repro.api import QueryHandle, Session
from repro.database import MonitoredResult
from repro.errors import ProgressError
from repro.obs.bus import SealedTrace, TraceBus
from repro.workloads import queries, tpcr


def _db():
    return tpcr.build_database(scale=0.002, subset_rows=60)


# ----------------------------------------------------------------------
# Session / QueryHandle


class TestSession:
    def test_connect_returns_a_session(self):
        session = _db().connect()
        assert isinstance(session, Session)
        assert session.handles == []

    def test_submit_result_round_trip(self):
        session = _db().connect()
        handle = session.submit("select count(*) from lineitem")
        assert isinstance(handle, QueryHandle)
        assert handle.state == "pending"
        result = handle.result()
        assert handle.done and handle.state == "finished"
        assert result.row_count == 1
        # result() is idempotent once finished.
        assert handle.result() is result

    def test_progress_is_valid_any_time(self):
        session = _db().connect()
        handle = session.submit(queries.Q1, keep_rows=False)
        before = handle.progress()
        assert before is not None and before.fraction_done == 0.0
        session.step()
        mid = handle.progress()
        assert 0.0 <= mid.fraction_done <= 1.0
        handle.result()
        assert handle.progress().fraction_done == pytest.approx(1.0)

    def test_waiting_on_one_handle_pumps_the_others(self):
        session = _db().connect()
        h1 = session.submit(queries.Q1, keep_rows=False)
        h2 = session.submit(queries.Q2, keep_rows=False)
        h1.result()
        # The other query advanced and is left in flight, not drained.
        assert h1.state == "finished"
        assert h2.state == "suspended"
        assert len(h2.task.slices) > 0

    def test_result_raises_when_every_pending_query_is_suspended(self):
        session = _db().connect()
        a = session.submit(queries.Q1, keep_rows=False)
        b = session.submit(queries.Q2, keep_rows=False)
        session.step()
        session.scheduler.suspend(a.task)
        session.scheduler.suspend(b.task)
        with pytest.raises(ProgressError, match="cannot finish: nothing runnable"):
            b.result()
        assert not a.done and not b.done

    def test_one_handle_object_per_submission(self):
        session = _db().connect()
        handle = session.submit(queries.Q1, keep_rows=False)
        assert QueryHandle is repro.QueryHandle is repro.service.QueryHandle
        assert session.handles == session.service.handles == [handle]
        assert session.handles[0] is handle
        assert session.step() is handle
        assert session.run() == [handle]

    def test_submit_accepts_prepared_plans(self):
        db = _db()
        planned = db.prepare("select count(*) from orders")
        handle = db.connect().submit(planned, name="prep")
        assert handle.result().rows[0][0] > 0

    def test_auto_name_skips_an_explicitly_taken_name(self):
        session = _db().connect()
        session.submit("select count(*) from orders", name="q2")
        assert session.submit("select count(*) from orders").name == "q3"

    def test_execute_convenience_is_unmonitored(self):
        session = _db().connect()
        result = session.execute("select count(*) from orders")
        assert result.row_count == 1
        assert session.handles[0].progress() is None

    def test_monitored_bridge_returns_legacy_bundle(self):
        session = _db().connect()
        handle = session.submit(queries.Q1, keep_rows=False, trace=True)
        bundle = handle.monitored()
        assert isinstance(bundle, MonitoredResult)
        assert bundle.result is handle.result()
        assert bundle.log is handle.log
        assert isinstance(bundle.trace, SealedTrace)

    def test_monitored_requires_monitoring(self):
        session = _db().connect()
        handle = session.submit(queries.Q1, monitor=False, keep_rows=False)
        with pytest.raises(ProgressError, match="monitor=False"):
            handle.monitored()

    def test_failed_query_raises_original_error(self):
        db = _db()
        session = db.connect()
        handle = session.submit("select count(*) from lineitem")
        handle.task.gen = iter_raises()
        with pytest.raises(RuntimeError, match="boom"):
            handle.result()
        assert handle.state == "failed"

    def test_cancel_then_result_raises(self):
        session = _db().connect()
        handle = session.submit(queries.Q1, keep_rows=False)
        session.step()
        log = handle.cancel()
        assert handle.state == "cancelled"
        assert log is not None and log.final().finished is False
        with pytest.raises(ProgressError, match="cancelled"):
            handle.result()
        # cancel() is idempotent.
        assert handle.cancel() is log


def iter_raises():
    def gen():
        raise RuntimeError("boom")
        yield  # pragma: no cover

    return gen()


# ----------------------------------------------------------------------
# sealed traces


class TestSealedTrace:
    def test_trace_view_is_read_only(self):
        session = _db().connect()
        handle = session.submit(queries.Q1, keep_rows=False, trace=True)
        handle.result()
        sealed = handle.trace()
        assert isinstance(sealed, SealedTrace)
        assert len(sealed) > 0
        assert not hasattr(sealed, "emit")
        assert not hasattr(sealed, "subscribe")
        assert isinstance(sealed.events, tuple)
        with pytest.raises(AttributeError):
            sealed.events = ()

    def test_sealed_view_is_stable_once_done(self):
        session = _db().connect()
        handle = session.submit(queries.Q1, keep_rows=False, trace=True)
        handle.result()
        assert handle.trace() is handle.trace()

    def test_of_kind_and_counts_match(self):
        session = _db().connect()
        handle = session.submit(queries.Q1, keep_rows=False, trace=True)
        handle.result()
        sealed = handle.trace()
        for kind, count in sealed.counts().items():
            assert len(list(sealed.of_kind(kind))) == count

    def test_untraced_query_has_no_trace(self):
        session = _db().connect()
        handle = session.submit(queries.Q1, keep_rows=False, trace=False)
        handle.result()
        assert handle.trace() is None

    def test_caller_supplied_bus_still_live_but_view_sealed(self):
        bus = TraceBus()
        session = _db().connect()
        handle = session.submit(queries.Q1, keep_rows=False, trace=bus)
        bundle = handle.monitored()
        assert isinstance(bundle.trace, SealedTrace)
        assert len(bundle.trace) == len(bus.events)


# ----------------------------------------------------------------------
# what the removed Database.execute* facade's tests pinned about the session


class TestDeprecatedFacade:
    def test_shim_trace_is_sealed_not_live(self):
        db = _db()
        monitored = (
            db.connect()
            .submit(queries.Q1, keep_rows=False, trace=TraceBus())
            .monitored()
        )
        assert isinstance(monitored.trace, SealedTrace)
        assert not hasattr(monitored.trace, "emit")

    def test_session_path_emits_no_deprecation_warning(self, recwarn):
        session = _db().connect()
        session.submit(queries.Q1, keep_rows=False).result()
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
