"""Integration: the full SQL surface on the TPC-R data set.

Exercises every extension together — joins, aggregation, HAVING, DISTINCT,
BETWEEN/IN/LIKE, IN-subqueries, ORDER BY, LIMIT — with progress monitoring
attached, verifying results against Python recomputation.
"""

from collections import defaultdict

import pytest

from repro.workloads import tpcr


@pytest.fixture(scope="module")
def db():
    return tpcr.build_database(scale=0.002, subset_rows=40)


def customer_rows(db):
    return list(db.catalog.get_table("customer").heap.iter_rows())


def orders_rows(db):
    return list(db.catalog.get_table("orders").heap.iter_rows())


class TestAnalyticsReport:
    def test_revenue_by_nation_report(self, db):
        sql = """
        select c.nationkey, count(*), sum(o.totalprice)
        from customer c, orders o
        where c.custkey = o.custkey and c.nationkey between 0 and 9
        group by c.nationkey
        having count(*) > 5
        order by c.nationkey
        """
        monitored = db.connect().submit(sql, keep_rows=True).monitored()

        nation_of = {c[0]: c[3] for c in customer_rows(db)}
        agg = defaultdict(lambda: [0, 0.0])
        for o in orders_rows(db):
            nation = nation_of[o[1]]
            if 0 <= nation <= 9:
                agg[nation][0] += 1
                agg[nation][1] += o[3]
        expected = sorted(
            (n, c, t) for n, (c, t) in agg.items() if c > 5
        )
        got = monitored.result.rows
        assert [(r[0], r[1]) for r in got] == [(e[0], e[1]) for e in expected]
        for r, e in zip(got, expected):
            assert r[2] == pytest.approx(e[2])

    def test_distinct_market_segments_of_big_spenders(self, db):
        sql = """
        select distinct c.mktsegment
        from customer c
        where c.custkey in (
            select custkey from orders where totalprice > 450000
        )
        order by c.mktsegment
        """
        result = db.connect().execute(sql)
        spenders = {o[1] for o in orders_rows(db) if o[3] > 450000}
        expected = sorted({c[6] for c in customer_rows(db) if c[0] in spenders})
        assert [r[0] for r in result.rows] == expected

    def test_like_and_in_list_combined(self, db):
        sql = """
        select count(*)
        from customer
        where name like 'Customer#0000000%' and nationkey in (1, 2, 3)
        """
        result = db.connect().execute(sql)
        expected = sum(
            1
            for c in customer_rows(db)
            if c[1].startswith("Customer#0000000") and c[3] in (1, 2, 3)
        )
        assert result.rows == [(expected,)]

    def test_top_k_over_join(self, db):
        sql = """
        select c.name, o.totalprice
        from customer c, orders o
        where c.custkey = o.custkey
        order by o.totalprice desc
        limit 5
        """
        result = db.connect().execute(sql)
        top = sorted((o[3] for o in orders_rows(db)), reverse=True)[:5]
        assert [r[1] for r in result.rows] == top

    def test_monitored_report_behaves(self, db):
        sql = """
        select c.nationkey, count(*), avg(o.totalprice)
        from customer c, orders o
        where c.custkey = o.custkey
        group by c.nationkey
        order by c.nationkey
        """
        db.restart()
        monitored = db.connect().submit(sql, keep_rows=True).monitored()
        log = monitored.log
        assert log.final().percent_done == pytest.approx(100.0)
        percents = [r.percent_done for r in log]
        assert all(b >= a - 1e-9 for a, b in zip(percents, percents[1:]))
        assert monitored.result.row_count == len(
            {c[3] for c in customer_rows(db)}
        )
