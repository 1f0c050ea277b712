"""Unit tests for transactions and monitored rollback."""

import pytest

from repro.database import Database
from repro.errors import ExecutionError
from repro.storage.schema import Column, Schema
from repro.storage.types import FLOAT, INTEGER, string
from repro.txn import Transaction


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "accounts",
        Schema(
            [
                Column("id", INTEGER),
                Column("owner", string(20)),
                Column("balance", FLOAT),
            ]
        ),
        [(i, f"owner{i % 7}", float(100 * i)) for i in range(500)],
    )
    database.analyze()
    return database


def balances(db):
    return [r[2] for r in db.catalog.get_table("accounts").heap.iter_rows()]


def all_rows(db):
    return list(db.catalog.get_table("accounts").heap.iter_rows())


class TestUpdate:
    def test_update_applies(self, db):
        txn = Transaction(db)
        updated = txn.update(
            "accounts",
            {"balance": lambda row: row[2] + 10.0},
            where=lambda row: row[0] < 100,
        )
        txn.commit()
        assert updated == 100
        rows = all_rows(db)
        assert all(r[2] == 100.0 * r[0] + 10.0 for r in rows if r[0] < 100)
        assert all(r[2] == 100.0 * r[0] for r in rows if r[0] >= 100)

    def test_update_writes_undo_records(self, db):
        txn = Transaction(db)
        txn.update("accounts", {"balance": lambda row: row[2] + 1.0})
        assert txn.undo_records == 500

    def test_noop_update_writes_no_undo(self, db):
        txn = Transaction(db)
        updated = txn.update("accounts", {"balance": lambda row: row[2]})
        assert updated == 0
        assert txn.undo_records == 0

    def test_update_charges_time(self, db):
        before = db.clock.now
        txn = Transaction(db)
        txn.update("accounts", {"balance": lambda row: 0.0})
        assert db.clock.now > before

    def test_query_sees_updates(self, db):
        txn = Transaction(db)
        txn.update("accounts", {"balance": lambda row: -1.0},
                   where=lambda row: row[0] == 3)
        txn.commit()
        result = db.connect().execute("select balance from accounts where id = 3")
        assert result.rows == [(-1.0,)]


class TestDelete:
    def test_delete_removes_rows(self, db):
        txn = Transaction(db)
        deleted = txn.delete("accounts", where=lambda row: row[0] % 2 == 0)
        txn.commit()
        assert deleted == 250
        assert db.catalog.get_table("accounts").num_tuples == 250
        assert all(r[0] % 2 == 1 for r in all_rows(db))

    def test_delete_everything(self, db):
        txn = Transaction(db)
        assert txn.delete("accounts") == 500
        txn.commit()
        assert db.connect().execute("select id from accounts").rows == []

    def test_total_bytes_shrink(self, db):
        before = db.catalog.get_table("accounts").heap.total_bytes
        txn = Transaction(db)
        txn.delete("accounts", where=lambda row: row[0] < 250)
        txn.commit()
        assert db.catalog.get_table("accounts").heap.total_bytes < before


class TestRollback:
    def test_rollback_restores_updates(self, db):
        original = all_rows(db)
        txn = Transaction(db)
        txn.update("accounts", {"balance": lambda row: 0.0})
        txn.rollback()
        assert all_rows(db) == original

    def test_rollback_restores_deletes_in_order(self, db):
        original = all_rows(db)
        txn = Transaction(db)
        txn.delete("accounts", where=lambda row: row[0] % 3 == 0)
        txn.rollback()
        assert all_rows(db) == original

    def test_rollback_mixed_operations(self, db):
        original = all_rows(db)
        txn = Transaction(db)
        txn.update("accounts", {"balance": lambda row: row[2] * 2},
                   where=lambda row: row[0] < 50)
        txn.delete("accounts", where=lambda row: row[0] >= 450)
        txn.update("accounts", {"owner": lambda row: "nobody"},
                   where=lambda row: row[0] == 10)
        txn.rollback()
        assert all_rows(db) == original

    def test_rollback_monitor_progress(self, db):
        txn = Transaction(db)
        txn.update("accounts", {"balance": lambda row: 0.0})
        total = txn.undo_records
        samples = []
        monitor = txn.rollback(
            on_record=lambda m: samples.append(m.remaining_records)
        )
        assert monitor.total_records == total
        assert monitor.remaining_records == 0
        assert monitor.fraction_done == 1.0
        assert samples[0] == total - 1
        assert samples[-1] == 0

    def test_rollback_monitor_estimates_time(self, db):
        txn = Transaction(db)
        txn.update("accounts", {"balance": lambda row: 0.0})
        estimates = []

        def observe(monitor):
            est = monitor.est_remaining_seconds()
            if est is not None:
                estimates.append((monitor.remaining_records, est))

        txn.rollback(on_record=observe)
        assert estimates
        # Estimates shrink as the rollback proceeds.
        assert estimates[-1][1] < estimates[0][1]

    def test_rollback_takes_simulated_time(self, db):
        txn = Transaction(db)
        txn.delete("accounts")
        before = db.clock.now
        txn.rollback()
        assert db.clock.now > before


class TestLifecycle:
    def test_commit_then_dml_rejected(self, db):
        txn = Transaction(db)
        txn.commit()
        with pytest.raises(ExecutionError):
            txn.update("accounts", {"balance": lambda row: 0.0})

    def test_rollback_twice_rejected(self, db):
        txn = Transaction(db)
        txn.rollback()
        with pytest.raises(ExecutionError):
            txn.rollback()

    def test_dml_invalidates_indexes_and_stats(self, db):
        db.create_index("accounts", "id")
        txn = Transaction(db)
        txn.delete("accounts", where=lambda row: row[0] == 1)
        txn.commit()
        table = db.catalog.get_table("accounts")
        assert table.indexes == {}
        assert table.statistics is None

    def test_queries_still_run_after_dml(self, db):
        txn = Transaction(db)
        txn.delete("accounts", where=lambda row: row[0] < 10)
        txn.commit()
        db.analyze("accounts")
        result = db.connect().execute("select count(*) from accounts")
        assert result.rows == [(490,)]
