"""Unit tests for executor operators: correctness and cost charging."""

import pytest

from repro.config import SystemConfig
from repro.database import Database
from repro.storage.schema import Column, Schema
from repro.storage.types import FLOAT, INTEGER, string


def make_db(config=None):
    db = Database(config=config)
    db.create_table(
        "r",
        Schema([Column("k", INTEGER), Column("g", INTEGER), Column("s", string(20))]),
        [(i, i % 5, f"r{i}") for i in range(60)],
    )
    db.create_table(
        "s",
        Schema([Column("k", INTEGER), Column("v", FLOAT)]),
        [(i % 30, float(i)) for i in range(90)],
    )
    db.analyze()
    return db


def brute_force_join(db, predicate):
    r_rows = list(db.catalog.get_table("r").heap.iter_rows())
    s_rows = list(db.catalog.get_table("s").heap.iter_rows())
    return sorted(
        (r[0], s[1]) for r in r_rows for s in s_rows if predicate(r, s)
    )


class TestScans:
    def test_seq_scan_all_rows(self):
        db = make_db()
        result = db.connect().execute("select k from r")
        assert len(result.rows) == 60

    def test_filter_applied(self):
        db = make_db()
        result = db.connect().execute("select k from r where g = 2")
        assert sorted(r[0] for r in result.rows) == [i for i in range(60) if i % 5 == 2]

    def test_scan_advances_clock(self):
        db = make_db()
        before = db.clock.now
        db.connect().execute("select k from r")
        assert db.clock.now > before

    def test_warm_scan_faster_than_cold(self):
        db = make_db()
        t0 = db.clock.now
        db.connect().execute("select k from r")
        cold = db.clock.now - t0
        t0 = db.clock.now
        db.connect().execute("select k from r")
        warm = db.clock.now - t0
        assert warm < cold

    def test_function_filter(self):
        db = make_db()
        result = db.connect().execute("select k from r where absolute(k) > 0")
        assert len(result.rows) == 59  # k = 0 excluded


class TestHashJoinOp:
    def test_in_memory_results(self):
        db = make_db()
        result = db.connect().execute("select r.k, s.v from r, s where r.k = s.k")
        expected = brute_force_join(db, lambda r, s: r[0] == s[0])
        assert sorted(result.rows) == expected

    def _big_db(self):
        db = Database(config=SystemConfig(work_mem_pages=1))
        db.create_table(
            "r",
            Schema([Column("k", INTEGER), Column("pad", string(40))]),
            [(i % 200, "x" * 30) for i in range(1500)],
        )
        db.create_table(
            "s",
            Schema([Column("k", INTEGER), Column("v", FLOAT)]),
            [(i % 200, float(i)) for i in range(1500)],
        )
        db.analyze()
        return db

    def test_partitioned_results_match(self):
        db = self._big_db()
        result = db.connect().execute("select r.k, s.v from r, s where r.k = s.k")
        expected = brute_force_join(db, lambda r, s: r[0] == s[0])
        assert sorted(result.rows) == expected

    def test_partitioned_mode_actually_planned(self):
        from repro.planner.physical import HashJoinNode

        db = self._big_db()
        plan = db.prepare("select r.k, s.v from r, s where r.k = s.k")

        def find(node):
            if isinstance(node, HashJoinNode):
                return node
            for c in node.children:
                got = find(c)
                if got is not None:
                    return got
            return None

        assert find(plan.root).num_batches > 1

    def test_partitioned_charges_spill_io(self):
        db = self._big_db()
        db.connect().execute("select r.k, s.v from r, s where r.k = s.k")
        assert db.disk.writes > 0

    def test_extra_filter_on_join(self):
        db = make_db()
        result = db.connect().execute(
            "select r.k, s.v from r, s where r.k = s.k and r.g < s.v"
        )
        expected = brute_force_join(db, lambda r, s: r[0] == s[0] and r[1] < s[1])
        assert sorted(result.rows) == expected

    def test_temp_partitions_released(self):
        db = make_db(SystemConfig(work_mem_pages=1))
        db.connect().execute("select r.k from r, s where r.k = s.k")
        # Only the two base tables should remain on the simulated disk.
        assert len(db.disk._files) == 2


class TestNestLoopOp:
    def test_inequality_join(self):
        db = make_db()
        result = db.connect().execute("select r.k, s.v from r, s where r.k <> s.k")
        expected = brute_force_join(db, lambda r, s: r[0] != s[0])
        assert sorted(result.rows) == expected

    def test_range_join(self):
        db = make_db()
        result = db.connect().execute("select r.k, s.v from r, s where r.k < s.k")
        expected = brute_force_join(db, lambda r, s: r[0] < s[0])
        assert sorted(result.rows) == expected


class TestMergeJoinOp:
    def _merge_db(self):
        db = make_db()
        db.config = db.config.with_planner(
            enable_hashjoin=False, enable_nestloop=False
        )
        return db

    def test_results_match_hash_join(self):
        db = self._merge_db()
        result = db.connect().execute("select r.k, s.v from r, s where r.k = s.k")
        expected = brute_force_join(db, lambda r, s: r[0] == s[0])
        assert sorted(result.rows) == expected

    def test_duplicates_on_both_sides(self):
        db = Database()
        db.config = db.config.with_planner(enable_hashjoin=False, enable_nestloop=False)
        db.create_table(
            "a", Schema([Column("k", INTEGER)]), [(1,), (1,), (2,), (3,)]
        )
        db.create_table(
            "b", Schema([Column("k", INTEGER), Column("x", INTEGER)]),
            [(1, 10), (1, 11), (3, 30)],
        )
        db.analyze()
        result = db.connect().execute("select a.k, b.x from a, b where a.k = b.k")
        assert sorted(result.rows) == [(1, 10), (1, 10), (1, 11), (1, 11), (3, 30)]

    def test_null_keys_never_match(self):
        db = Database()
        db.config = db.config.with_planner(enable_hashjoin=False, enable_nestloop=False)
        db.create_table("a", Schema([Column("k", INTEGER)]), [(None,), (1,)])
        db.create_table("b", Schema([Column("k", INTEGER)]), [(None,), (1,)])
        db.analyze()
        result = db.connect().execute("select a.k from a, b where a.k = b.k")
        assert result.rows == [(1,)]


class TestSortOp:
    def test_order_by_ascending(self):
        db = make_db()
        result = db.connect().execute("select v from s order by v")
        values = [r[0] for r in result.rows]
        assert values == sorted(values)

    def test_order_by_descending(self):
        db = make_db()
        result = db.connect().execute("select v from s order by v desc")
        values = [r[0] for r in result.rows]
        assert values == sorted(values, reverse=True)

    def test_multi_key_sort(self):
        db = make_db()
        result = db.connect().execute("select g, k from r order by g desc, k asc")
        rows = result.rows
        assert rows == sorted(rows, key=lambda t: (-t[0], t[1]))

    def test_external_sort_spills_and_matches(self):
        db = Database(config=SystemConfig(work_mem_pages=1))
        db.create_table(
            "big",
            Schema([Column("v", FLOAT), Column("pad", string(40))]),
            [(float((i * 37) % 1000), "x" * 30) for i in range(2000)],
        )
        db.analyze()
        result = db.connect().execute("select v from big order by v")
        values = [r[0] for r in result.rows]
        assert values == sorted(values)
        assert db.disk.writes > 0

    def test_limit_after_sort(self):
        db = make_db()
        result = db.connect().execute("select v from s order by v desc limit 3")
        assert len(result.rows) == 3
        assert result.rows[0][0] == 89.0


class TestNullHandling:
    def test_null_join_keys_dropped_by_hash_join(self):
        db = Database()
        db.create_table("a", Schema([Column("k", INTEGER)]), [(None,), (1,), (2,)])
        db.create_table("b", Schema([Column("k", INTEGER)]), [(None,), (2,)])
        db.analyze()
        result = db.connect().execute("select a.k from a, b where a.k = b.k")
        assert result.rows == [(2,)]

    def test_null_filter_rejects(self):
        db = Database()
        db.create_table("a", Schema([Column("k", INTEGER)]), [(None,), (5,)])
        db.analyze()
        result = db.connect().execute("select k from a where k > 0")
        assert result.rows == [(5,)]


class TestQueryResult:
    def test_names_follow_select_list(self):
        db = make_db()
        result = db.connect().execute("select k as kk, s from r limit 1")
        assert result.names == ["kk", "s"]

    def test_keep_rows_false_discards_but_counts(self):
        db = make_db()
        result = db.connect().execute("select k from r", keep_rows=False)
        assert result.rows == []
        assert result.row_count == 60

    def test_max_rows_caps_retention(self):
        db = make_db()
        result = db.connect().execute("select k from r", max_rows=5)
        assert len(result.rows) == 5

    def test_elapsed_positive(self):
        db = make_db()
        assert db.connect().execute("select k from r").elapsed > 0
