"""Unit tests for uncorrelated IN-subqueries (hashed InitPlans)."""

import pytest

from repro.database import Database
from repro.errors import BindError
from repro.storage.schema import Column, Schema
from repro.storage.types import FLOAT, INTEGER, string


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "emp",
        Schema(
            [
                Column("id", INTEGER),
                Column("dept", INTEGER),
                Column("salary", FLOAT),
            ]
        ),
        [(i, i % 5, 1000.0 * (i % 10)) for i in range(100)],
    )
    database.create_table(
        "dept",
        Schema([Column("id", INTEGER), Column("name", string(12))]),
        [(0, "eng"), (1, "sales"), (2, "hr"), (3, "ops"), (7, "empty")],
    )
    database.analyze()
    return database


class TestInSubquery:
    def test_basic_membership(self, db):
        result = db.connect().execute(
            "select id from emp where dept in (select id from dept)"
        )
        expected = [i for i in range(100) if i % 5 in (0, 1, 2, 3)]
        assert sorted(r[0] for r in result.rows) == expected

    def test_filtered_subquery(self, db):
        result = db.connect().execute(
            "select id from emp where dept in "
            "(select id from dept where name = 'eng')"
        )
        assert sorted(r[0] for r in result.rows) == [i for i in range(100) if i % 5 == 0]

    def test_not_in(self, db):
        result = db.connect().execute(
            "select id from emp where dept not in (select id from dept)"
        )
        assert sorted(r[0] for r in result.rows) == [i for i in range(100) if i % 5 == 4]

    def test_empty_subquery_result(self, db):
        result = db.connect().execute(
            "select id from emp where dept in "
            "(select id from dept where name = 'nothing')"
        )
        assert result.rows == []

    def test_not_in_with_null_in_set_matches_nothing(self):
        database = Database()
        database.create_table("a", Schema([Column("x", INTEGER)]), [(1,), (2,)])
        database.create_table("b", Schema([Column("x", INTEGER)]), [(1,), (None,)])
        database.analyze()
        # SQL: NOT IN against a set containing NULL is never TRUE.
        result = database.connect().execute(
            "select x from a where x not in (select x from b)"
        )
        assert result.rows == []

    def test_null_operand_never_matches(self):
        database = Database()
        database.create_table("a", Schema([Column("x", INTEGER)]), [(None,), (1,)])
        database.create_table("b", Schema([Column("x", INTEGER)]), [(1,)])
        database.analyze()
        result = database.connect().execute(
            "select x from a where x in (select x from b)"
        )
        assert result.rows == [(1,)]

    def test_subquery_with_aggregation(self, db):
        result = db.connect().execute(
            "select id from emp where dept in "
            "(select dept from emp group by dept having count(*) > 19)"
        )
        assert len(result.rows) == 100  # every dept has exactly 20 members

    def test_subquery_combined_with_other_predicates(self, db):
        result = db.connect().execute(
            "select id from emp where dept in (select id from dept) "
            "and salary > 5000"
        )
        expected = [
            i
            for i in range(100)
            if i % 5 in (0, 1, 2, 3) and 1000.0 * (i % 10) > 5000
        ]
        assert sorted(r[0] for r in result.rows) == expected

    def test_monitored_query_with_subplan(self, db):
        monitored = db.connect().submit(
            "select id from emp where dept in (select id from dept)",
            keep_rows=True,
        ).monitored()
        assert len(monitored.result.rows) == 80
        assert monitored.log.final().percent_done == pytest.approx(100.0)

    def test_subplan_charges_time(self, db):
        before = db.clock.now
        db.connect().execute("select id from emp where dept in (select id from dept)")
        assert db.clock.now > before


class TestInSubqueryBinding:
    def test_multi_column_subquery_rejected(self, db):
        with pytest.raises(BindError, match="exactly one column"):
            db.prepare(
                "select id from emp where dept in (select id, name from dept)"
            )

    def test_correlated_reference_rejected(self, db):
        with pytest.raises(BindError, match="correlated"):
            db.prepare(
                "select id from emp where dept in "
                "(select id from dept where id = emp.dept)"
            )

    def test_type_mismatch_rejected(self, db):
        with pytest.raises(BindError):
            db.prepare(
                "select id from emp where dept in (select name from dept)"
            )

    def test_string_subquery_allowed(self, db):
        database = Database()
        database.create_table(
            "a", Schema([Column("s", string(5))]), [("x",), ("y",)]
        )
        database.create_table(
            "b", Schema([Column("s", string(5))]), [("y",), ("z",)]
        )
        database.analyze()
        result = database.connect().execute(
            "select s from a where s in (select s from b)"
        )
        assert result.rows == [("y",)]
