"""Integration: the paper's five queries produce correct results."""

import pytest

from repro.config import SystemConfig
from repro.workloads import correlated, queries, tpcr


@pytest.fixture(scope="module")
def db():
    return tpcr.build_database(scale=0.001, subset_rows=40)


def rows_of(db_, table):
    return list(db_.catalog.get_table(table).heap.iter_rows())


class TestQ1:
    def test_returns_every_lineitem(self, db):
        result = db.connect().execute(queries.Q1)
        assert result.row_count == db.catalog.get_table("lineitem").num_tuples

    def test_columns_complete(self, db):
        result = db.connect().execute(queries.Q1, max_rows=1)
        assert len(result.rows[0]) == 10


class TestQ2:
    def test_matches_brute_force(self, db):
        result = db.connect().execute(queries.Q2, keep_rows=True)
        customers = {c[0] for c in rows_of(db, "customer")}
        orders = {o[0]: o for o in rows_of(db, "orders")}
        expected = sum(
            1
            for l in rows_of(db, "lineitem")
            if l[0] in orders and orders[l[0]][1] in customers and abs(l[1]) > 0
        )
        assert result.row_count == expected

    def test_every_lineitem_joins(self, db):
        # Key/FK integrity: each lineitem matches exactly one order and
        # each order exactly one customer, so |Q2| = |lineitem|.
        result = db.connect().execute(queries.Q2, keep_rows=False)
        assert result.row_count == db.catalog.get_table("lineitem").num_tuples

    def test_multibatch_plan_same_answer(self):
        small = tpcr.build_database(
            scale=0.001, subset_rows=40, config=SystemConfig(work_mem_pages=1)
        )
        big = tpcr.build_database(scale=0.001, subset_rows=40)
        a = small.connect().execute(queries.Q2, keep_rows=True)
        b = big.connect().execute(queries.Q2, keep_rows=True)
        assert sorted(a.rows) == sorted(b.rows)


class TestQ3:
    def test_matches_brute_force_on_correlated_data(self):
        db3 = correlated.build_database(scale=0.001, subset_rows=40)
        result = db3.connect().execute(queries.Q3, keep_rows=False)
        customers = {
            c[0] for c in rows_of(db3, "customer") if c[3] < 10
        }
        orders = rows_of(db3, "orders")
        orderkeys = {o[0] for o in orders}
        expected = sum(
            1 for o in orders if o[1] in customers and o[0] in orderkeys
        )
        assert result.row_count == expected

    def test_heavy_customers_dominate(self):
        # nationkey<10 customers have 20 orders each in the correlated set.
        db3 = correlated.build_database(scale=0.001, subset_rows=40)
        result = db3.connect().execute(queries.Q3, keep_rows=False)
        heavy = sum(1 for c in rows_of(db3, "customer") if c[3] < 10)
        assert result.row_count == heavy * 20


class TestQ4:
    def test_matches_q2_row_count(self, db):
        # The extra predicate absolute(o.totalprice) > 0 is always true.
        q2 = db.connect().execute(queries.Q2, keep_rows=False)
        q4 = db.connect().execute(queries.Q4, keep_rows=False)
        assert q4.row_count == q2.row_count

    def test_wider_output(self, db):
        result = db.connect().execute(queries.Q4, max_rows=1)
        assert len(result.rows[0]) == 7


class TestQ5:
    def test_cross_product_minus_equal_keys(self, db):
        result = db.connect().execute(queries.Q5, keep_rows=False)
        n1 = db.catalog.get_table("customer_subset1").num_tuples
        n2 = db.catalog.get_table("customer_subset2").num_tuples
        # Subset key ranges are disjoint, so no pair is ever equal.
        assert result.row_count == n1 * n2

    def test_star_output_width(self, db):
        result = db.connect().execute(queries.Q5, max_rows=1)
        assert len(result.rows[0]) == 14


class TestMonitoredEquivalence:
    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5"])
    def test_indicator_never_changes_answers(self, name):
        sql = queries.PAPER_QUERIES[name]
        build = (
            correlated.build_database if name == "Q3" else tpcr.build_database
        )
        plain_db = build(scale=0.001, subset_rows=30)
        monitored_db = build(scale=0.001, subset_rows=30)
        plain = plain_db.connect().execute(sql, keep_rows=True)
        monitored = monitored_db.connect().submit(sql, keep_rows=True).monitored()
        assert sorted(plain.rows) == sorted(monitored.result.rows)
