"""Unit tests for GROUP BY / HAVING / aggregate functions.

Aggregation is the paper's "wider classes of queries" extension (Section
6, future work 3): the hash aggregate is one more blocking operator, so
the segment model covers grouped queries with no new machinery.
"""

from collections import defaultdict

import pytest

from repro.database import Database
from repro.errors import BindError
from repro.planner.physical import FilterNode, HashAggregateNode
from repro.storage.schema import Column, Schema
from repro.storage.types import FLOAT, INTEGER, string


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "sales",
        Schema(
            [
                Column("region", string(10)),
                Column("product", INTEGER),
                Column("amount", FLOAT),
            ]
        ),
        [
            ("north", i % 5, float(10 * i % 97)) for i in range(200)
        ]
        + [("south", i % 3, float(7 * i % 53)) for i in range(100)],
    )
    database.analyze()
    return database


def find(root, node_type):
    out = []

    def walk(n):
        if isinstance(n, node_type):
            out.append(n)
        for c in n.children:
            walk(c)

    walk(root)
    return out


class TestAggregateResults:
    def test_count_star(self, db):
        result = db.connect().execute("select count(*) from sales")
        assert result.rows == [(300,)]

    def test_count_column_skips_nulls(self):
        database = Database()
        database.create_table(
            "t", Schema([Column("x", INTEGER)]), [(1,), (None,), (3,), (None,)]
        )
        database.analyze()
        result = database.connect().execute("select count(x), count(*) from t")
        assert result.rows == [(2, 4)]

    def test_sum_avg_min_max(self, db):
        result = db.connect().execute(
            "select sum(amount), avg(amount), min(amount), max(amount) from sales"
        )
        rows = [r for r in db.catalog.get_table("sales").heap.iter_rows()]
        amounts = [r[2] for r in rows]
        total, avg = sum(amounts), sum(amounts) / len(amounts)
        got = result.rows[0]
        assert got[0] == pytest.approx(total)
        assert got[1] == pytest.approx(avg)
        assert got[2] == min(amounts)
        assert got[3] == max(amounts)

    def test_group_by_matches_brute_force(self, db):
        result = db.connect().execute(
            "select region, product, count(*), sum(amount) from sales "
            "group by region, product"
        )
        expected = defaultdict(lambda: [0, 0.0])
        for region, product, amount in db.catalog.get_table("sales").heap.iter_rows():
            expected[(region, product)][0] += 1
            expected[(region, product)][1] += amount
        assert len(result.rows) == len(expected)
        for region, product, count, total in result.rows:
            want = expected[(region, product)]
            assert count == want[0]
            assert total == pytest.approx(want[1])

    def test_having_filters_groups(self, db):
        result = db.connect().execute(
            "select product, count(*) from sales group by product "
            "having count(*) > 50"
        )
        assert result.rows
        assert all(count > 50 for _, count in result.rows)

    def test_order_by_aggregate(self, db):
        result = db.connect().execute(
            "select product, count(*) from sales group by product "
            "order by count(*) desc"
        )
        counts = [c for _, c in result.rows]
        assert counts == sorted(counts, reverse=True)

    def test_aggregate_on_empty_input_global(self, db):
        result = db.connect().execute(
            "select count(*), sum(amount) from sales where amount < -1"
        )
        assert result.rows == [(0, None)]

    def test_aggregate_on_empty_input_grouped(self, db):
        result = db.connect().execute(
            "select region, count(*) from sales where amount < -1 group by region"
        )
        assert result.rows == []

    def test_arithmetic_over_aggregates(self, db):
        result = db.connect().execute("select sum(amount) / count(*) from sales")
        check = db.connect().execute("select avg(amount) from sales")
        assert result.rows[0][0] == pytest.approx(check.rows[0][0])

    def test_group_by_join_result(self, db):
        database = Database()
        database.create_table(
            "a", Schema([Column("k", INTEGER), Column("g", INTEGER)]),
            [(i, i % 4) for i in range(40)],
        )
        database.create_table(
            "b", Schema([Column("k", INTEGER), Column("v", FLOAT)]),
            [(i % 40, float(i)) for i in range(120)],
        )
        database.analyze()
        result = database.connect().execute(
            "select a.g, count(*) from a, b where a.k = b.k group by a.g"
        )
        assert sorted(result.rows) == [(0, 30), (1, 30), (2, 30), (3, 30)]


class TestAggregatePlanning:
    def test_plan_contains_aggregate_node(self, db):
        plan = db.prepare("select region, count(*) from sales group by region")
        nodes = find(plan.root, HashAggregateNode)
        assert len(nodes) == 1
        assert len(nodes[0].group_keys) == 1

    def test_having_becomes_filter_node(self, db):
        plan = db.prepare(
            "select region, count(*) from sales group by region having count(*) > 10"
        )
        assert find(plan.root, FilterNode)

    def test_group_estimate_uses_distinct_count(self, db):
        plan = db.prepare("select region, count(*) from sales group by region")
        agg = find(plan.root, HashAggregateNode)[0]
        assert agg.est_rows == pytest.approx(2.0)  # north/south

    def test_duplicate_aggregates_share_one_slot(self, db):
        plan = db.prepare(
            "select count(*), count(*) + 1 from sales"
        )
        agg = find(plan.root, HashAggregateNode)[0]
        assert len(agg.aggregates) == 1


class TestAggregateBinding:
    def test_bare_column_outside_group_rejected(self, db):
        with pytest.raises(BindError, match="GROUP BY"):
            db.prepare("select region, amount from sales group by region")

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(BindError, match="WHERE"):
            db.prepare("select region from sales where count(*) > 1 group by region")

    def test_nested_aggregate_rejected(self, db):
        with pytest.raises(BindError, match="nested"):
            db.prepare("select sum(count(*)) from sales group by region")

    def test_star_only_for_count(self, db):
        with pytest.raises(BindError):
            db.prepare("select sum(*) from sales")

    def test_sum_requires_numeric(self, db):
        with pytest.raises(BindError, match="numeric"):
            db.prepare("select sum(region) from sales")

    def test_having_requires_boolean(self, db):
        with pytest.raises(BindError, match="HAVING"):
            db.prepare(
                "select region from sales group by region having count(*) + 1"
            )

    def test_group_by_expression_rejected(self, db):
        with pytest.raises(BindError, match="plain column"):
            db.prepare("select count(*) from sales group by product + 1")


class TestAggregateProgress:
    def test_monitored_matches_plain(self, db):
        sql = (
            "select region, product, count(*), avg(amount) from sales "
            "group by region, product order by region, product"
        )
        plain = db.connect().execute(sql)
        db.restart()
        monitored = db.connect().submit(sql, keep_rows=True).monitored()
        assert monitored.result.rows == plain.rows

    def test_aggregate_is_a_segment_boundary(self, db):
        monitored = db.connect().submit(
            "select region, count(*) from sales group by region",
            keep_rows=False,
        ).monitored()
        labels = [s.label for s in monitored.indicator.segments]
        assert any("aggregate" in label for label in labels)
        assert monitored.log.final().percent_done == pytest.approx(100.0)

    def test_group_output_counted_as_segment_output(self, db):
        monitored = db.connect().submit(
            "select region, count(*) from sales group by region",
            keep_rows=False,
        ).monitored()
        agg_seg = next(
            s for s in monitored.indicator.segments if "aggregate" in s.label
        )
        counters = monitored.indicator.tracker.segments[agg_seg.id]
        assert counters.output_rows == 2  # north, south
