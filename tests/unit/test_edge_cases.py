"""Edge-case coverage across the whole stack."""

import pytest

from repro.config import SystemConfig
from repro.database import Database
from repro.errors import CatalogError
from repro.storage.schema import Column, Schema
from repro.storage.types import FLOAT, INTEGER, string
from repro.workloads import queries


def db_with(name, schema, rows, config=None):
    db = Database(config=config)
    db.create_table(name, schema, rows)
    db.analyze()
    return db


INT_T = Schema([Column("x", INTEGER)])


class TestEmptyAndTinyTables:
    def test_scan_empty_table(self):
        db = db_with("t", INT_T, [])
        assert db.connect().execute("select x from t").rows == []

    def test_join_with_empty_side(self):
        db = Database()
        db.create_table("a", INT_T, [])
        db.create_table("b", Schema([Column("x", INTEGER), Column("y", INTEGER)]),
                        [(1, 2)])
        db.analyze()
        assert db.connect().execute("select a.x from a, b where a.x = b.x").rows == []

    def test_monitored_empty_query_completes(self):
        db = db_with("t", INT_T, [])
        monitored = db.connect().submit("select x from t", keep_rows=False).monitored()
        assert monitored.log.final().finished
        assert monitored.log.final().percent_done == pytest.approx(100.0)

    def test_single_row_table(self):
        db = db_with("t", INT_T, [(7,)])
        assert db.connect().execute("select x from t where x = 7").rows == [(7,)]

    def test_sort_empty_input(self):
        db = db_with("t", INT_T, [])
        assert db.connect().execute("select x from t order by x").rows == []

    def test_order_by_with_ties_stable_cardinality(self):
        db = db_with("t", INT_T, [(1,)] * 10)
        assert len(db.connect().execute("select x from t order by x").rows) == 10


class TestLimits:
    def test_limit_zero(self):
        db = db_with("t", INT_T, [(i,) for i in range(10)])
        assert db.connect().execute("select x from t limit 0").rows == []

    def test_limit_larger_than_result(self):
        db = db_with("t", INT_T, [(i,) for i in range(3)])
        assert len(db.connect().execute("select x from t limit 100").rows) == 3

    def test_limit_stops_execution_early(self):
        # A limited scan must not pay for the whole table.
        rows = [(i, "x" * 40) for i in range(20_000)]
        schema = Schema([Column("x", INTEGER), Column("pad", string(50))])
        full_db = db_with("t", schema, rows)
        full_db.connect().execute("select x from t", keep_rows=False)
        full_time = full_db.clock.now
        lim_db = db_with("t", schema, rows)
        lim_db.connect().execute("select x from t limit 5")
        assert lim_db.clock.now < 0.2 * full_time


class TestThreeWayAndSelfJoins:
    def test_cross_join_no_predicates(self):
        db = Database()
        db.create_table("a", INT_T, [(1,), (2,)])
        db.create_table("b", Schema([Column("y", INTEGER)]), [(10,), (20,), (30,)])
        db.analyze()
        result = db.connect().execute("select x, y from a, b")
        assert len(result.rows) == 6

    def test_self_join_aliases(self):
        db = db_with("t", INT_T, [(1,), (2,), (3,)])
        result = db.connect().execute(
            "select a.x, b.x from t a, t b where a.x < b.x"
        )
        assert sorted(result.rows) == [(1, 2), (1, 3), (2, 3)]

    def test_four_way_join(self):
        db = Database()
        for name in ("a", "b", "c", "d"):
            db.create_table(
                name,
                Schema([Column(f"k{name}", INTEGER), Column(f"v{name}", INTEGER)]),
                [(i, i * 10) for i in range(20)],
            )
        db.analyze()
        result = db.connect().execute(
            "select a.va from a, b, c, d "
            "where a.ka = b.kb and b.kb = c.kc and c.kc = d.kd"
        )
        assert len(result.rows) == 20


class TestDuplicatesAndNulls:
    def test_duplicate_rows_preserved(self):
        db = db_with("t", INT_T, [(5,)] * 4)
        assert len(db.connect().execute("select x from t where x = 5").rows) == 4

    def test_all_null_join_column(self):
        db = Database()
        db.create_table("a", INT_T, [(None,)] * 5)
        db.create_table("b", Schema([Column("y", INTEGER)]), [(None,)] * 5)
        db.analyze()
        assert db.connect().execute("select x from a, b where a.x = b.y").rows == []

    def test_null_in_projection(self):
        db = db_with("t", INT_T, [(None,), (1,)])
        rows = db.connect().execute("select x from t").rows
        assert (None,) in rows

    def test_arithmetic_on_null_projects_null(self):
        db = db_with("t", INT_T, [(None,)])
        assert db.connect().execute("select x + 1 from t").rows == [(None,)]


class TestCatalogEdges:
    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", INT_T, [])
        with pytest.raises(CatalogError):
            db.create_table("t", INT_T, [])

    def test_table_names_case_insensitive(self):
        db = Database()
        db.create_table("MyTable", INT_T, [(1,)])
        assert db.connect().execute("select x from mytable").rows == [(1,)]

    def test_drop_table(self):
        db = Database()
        db.create_table("t", INT_T, [(1,)])
        db.catalog.drop_table("t")
        assert not db.catalog.has_table("t")

    def test_duplicate_index_rejected(self):
        db = db_with("t", INT_T, [(1,)])
        db.create_index("t", "x")
        with pytest.raises(CatalogError):
            db.create_index("t", "x")

    def test_index_on_missing_column_rejected(self):
        db = db_with("t", INT_T, [(1,)])
        with pytest.raises(CatalogError):
            db.create_index("t", "nope")


class TestWorkMemExtremes:
    def test_q2_shape_stable_across_work_mem(self, tpcr_queries):
        """The join result must not depend on the memory budget."""
        from repro.workloads import tpcr

        results = []
        for pages in (1, 8, 512):
            db = tpcr.build_database(
                scale=0.001, subset_rows=20,
                config=SystemConfig(work_mem_pages=pages),
            )
            results.append(db.connect().execute(
                tpcr_queries["Q2"], keep_rows=False
            ).row_count)
        assert results[0] == results[1] == results[2]

    def test_tiny_work_mem_still_monitorable(self, tpcr_queries):
        from repro.workloads import tpcr

        db = tpcr.build_database(
            scale=0.001, subset_rows=20, config=SystemConfig(work_mem_pages=1)
        )
        monitored = db.connect().submit(tpcr_queries["Q2"], keep_rows=False).monitored()
        assert monitored.log.final().percent_done == pytest.approx(100.0)


class TestFloatLiteralsAndExpressions:
    def test_float_comparison(self):
        db = db_with(
            "t", Schema([Column("v", FLOAT)]), [(0.5,), (1.5,), (2.5,)]
        )
        assert len(db.connect().execute("select v from t where v > 1.0").rows) == 2

    def test_projection_expression(self):
        db = db_with("t", INT_T, [(3,)])
        assert db.connect().execute("select x * 2 + 1 from t").rows == [(7,)]

    def test_string_equality_filter(self):
        db = db_with(
            "t", Schema([Column("s", string(5))]), [("ab",), ("cd",)]
        )
        assert db.connect().execute("select s from t where s = 'cd'").rows == [("cd",)]

    def test_negative_literal_filter(self):
        db = db_with("t", INT_T, [(-5,), (5,)])
        assert db.connect().execute("select x from t where x < -1").rows == [(-5,)]
