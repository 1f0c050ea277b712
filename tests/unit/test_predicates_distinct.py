"""Unit tests for BETWEEN / IN / LIKE predicates and SELECT DISTINCT."""

import pytest

from repro.database import Database
from repro.errors import BindError, ParseError
from repro.planner.selectivity import filter_selectivity
from repro.sql.binder import Binder
from repro.sql.parser import parse_select
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "people",
        Schema(
            [
                Column("id", INTEGER),
                Column("name", string(20)),
                Column("age", INTEGER),
            ]
        ),
        [
            (1, "alice", 30),
            (2, "bob", 25),
            (3, "alicia", 35),
            (4, "carol", 40),
            (5, "al", 20),
            (6, None, 45),
        ],
    )
    database.analyze()
    return database


class TestBetween:
    def test_inclusive_both_ends(self, db):
        rows = db.connect().execute(
            "select id from people where age between 25 and 35"
        ).rows
        assert sorted(r[0] for r in rows) == [1, 2, 3]

    def test_not_between(self, db):
        rows = db.connect().execute(
            "select id from people where age not between 25 and 35"
        ).rows
        assert sorted(r[0] for r in rows) == [4, 5, 6]

    def test_between_with_expressions(self, db):
        rows = db.connect().execute(
            "select id from people where age between 20 + 5 and 30 + 5"
        ).rows
        assert sorted(r[0] for r in rows) == [1, 2, 3]


class TestIn:
    def test_in_list(self, db):
        rows = db.connect().execute("select id from people where id in (2, 4, 99)").rows
        assert sorted(r[0] for r in rows) == [2, 4]

    def test_not_in_list(self, db):
        rows = db.connect().execute("select id from people where id not in (2, 4)").rows
        assert sorted(r[0] for r in rows) == [1, 3, 5, 6]

    def test_in_strings(self, db):
        rows = db.connect().execute(
            "select id from people where name in ('bob', 'carol')"
        ).rows
        assert sorted(r[0] for r in rows) == [2, 4]

    def test_in_single_value(self, db):
        rows = db.connect().execute("select id from people where id in (3)").rows
        assert rows == [(3,)]


class TestLike:
    def test_prefix_wildcard(self, db):
        rows = db.connect().execute(
            "select name from people where name like 'ali%'"
        ).rows
        assert sorted(r[0] for r in rows) == ["alice", "alicia"]

    def test_underscore_single_char(self, db):
        rows = db.connect().execute("select name from people where name like 'a_'").rows
        assert rows == [("al",)]

    def test_contains(self, db):
        rows = db.connect().execute(
            "select name from people where name like '%ro%'"
        ).rows
        assert rows == [("carol",)]

    def test_not_like(self, db):
        rows = db.connect().execute(
            "select name from people where name not like 'a%'"
        ).rows
        assert sorted(r[0] for r in rows) == ["bob", "carol"]

    def test_null_never_matches(self, db):
        rows = db.connect().execute("select id from people where name like '%'").rows
        assert sorted(r[0] for r in rows) == [1, 2, 3, 4, 5]  # id 6 has NULL

    def test_exact_pattern_without_wildcards(self, db):
        rows = db.connect().execute("select id from people where name like 'bob'").rows
        assert rows == [(2,)]

    def test_regex_metacharacters_are_literal(self):
        database = Database()
        database.create_table(
            "t", Schema([Column("s", string(10))]), [("a.b",), ("axb",)]
        )
        database.analyze()
        rows = database.connect().execute("select s from t where s like 'a.b'").rows
        assert rows == [("a.b",)]

    def test_like_requires_string(self, db):
        with pytest.raises(BindError):
            db.prepare("select id from people where age like '3%'")

    def test_like_selectivity_uses_prefix(self, db):
        bound = Binder(db.catalog).bind(
            parse_select("select id from people where name like 'ali%'")
        )

        def lookup(coord):
            table = bound.tables[coord[0]].table
            name = table.schema.columns[coord[1]].name
            return table.statistics.column(name)

        sel = filter_selectivity(bound.conjuncts[0], lookup, 1.0 / 3.0)
        # Prefix-based estimate: the histogram range ['ali', 'alj').
        stats = lookup((0, 1))
        expected = stats.selectivity_cmp(">=", "ali") - stats.selectivity_cmp(
            ">=", "alj"
        )
        assert sel == pytest.approx(expected)
        assert 0.0 < sel < 1.0

    def test_leading_wildcard_gets_default(self, db):
        bound = Binder(db.catalog).bind(
            parse_select("select id from people where name like '%ol'")
        )
        sel = filter_selectivity(bound.conjuncts[0], lambda c: None, 1.0 / 3.0)
        assert sel == pytest.approx(1.0 / 3.0)


class TestDistinct:
    def test_distinct_deduplicates(self, db):
        database = Database()
        database.create_table(
            "t", Schema([Column("x", INTEGER)]), [(1,), (2,), (1,), (2,), (3,)]
        )
        database.analyze()
        rows = database.connect().execute("select distinct x from t").rows
        assert sorted(rows) == [(1,), (2,), (3,)]

    def test_distinct_preserves_sort_order(self, db):
        database = Database()
        database.create_table(
            "t", Schema([Column("x", INTEGER)]), [(3,), (1,), (2,), (1,)]
        )
        database.analyze()
        rows = database.connect().execute(
            "select distinct x from t order by x desc"
        ).rows
        assert rows == [(3,), (2,), (1,)]

    def test_distinct_multi_column(self, db):
        rows = db.connect().execute("select distinct age, id from people").rows
        assert len(rows) == 6  # all distinct anyway

    def test_distinct_with_limit(self):
        database = Database()
        database.create_table(
            "t", Schema([Column("x", INTEGER)]), [(i % 3,) for i in range(30)]
        )
        database.analyze()
        rows = database.connect().execute("select distinct x from t limit 2").rows
        assert len(rows) == 2

    def test_distinct_monitored(self, db):
        monitored = db.connect().submit(
            "select distinct age from people", keep_rows=True
        ).monitored()
        assert len(monitored.result.rows) == 6
        assert monitored.log.final().percent_done == pytest.approx(100.0)


class TestParserErrors:
    def test_dangling_not_rejected(self, db):
        with pytest.raises(ParseError):
            parse_select("select x from t where a not 5")

    def test_between_requires_and(self, db):
        with pytest.raises(ParseError):
            parse_select("select x from t where a between 1 2")

    def test_in_requires_parentheses(self, db):
        with pytest.raises(ParseError):
            parse_select("select x from t where a in 1, 2")

    def test_like_requires_string_literal(self, db):
        with pytest.raises(ParseError):
            parse_select("select x from t where s like 5")
