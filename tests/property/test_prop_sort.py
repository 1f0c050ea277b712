"""Property-based tests: sorting invariants (in-memory and external)."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.database import Database
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string

rows = st.lists(
    st.tuples(
        st.integers(min_value=-1000, max_value=1000),
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            max_size=12,
        ),
    ),
    max_size=150,
)


def sort_db(data, work_mem_pages=256):
    db = Database(config=SystemConfig(work_mem_pages=work_mem_pages))
    db.create_table(
        "t", Schema([Column("k", INTEGER), Column("s", string(20))]), data
    )
    db.analyze()
    return db


class TestSortProperties:
    @settings(max_examples=40, deadline=None)
    @given(rows)
    def test_output_is_sorted_ascending(self, data):
        db = sort_db(data)
        result = db.connect().execute("select k, s from t order by k")
        keys = [r[0] for r in result.rows]
        assert keys == sorted(keys)

    @settings(max_examples=40, deadline=None)
    @given(rows)
    def test_output_is_permutation_of_input(self, data):
        db = sort_db(data)
        result = db.connect().execute("select k, s from t order by k")
        assert Counter(result.rows) == Counter(data)

    @settings(max_examples=25, deadline=None)
    @given(rows)
    def test_external_sort_equals_in_memory_sort(self, data):
        in_mem = sort_db(data, work_mem_pages=256).connect().execute(
            "select k, s from t order by k, s"
        )
        external = sort_db(data, work_mem_pages=1).connect().execute(
            "select k, s from t order by k, s"
        )
        assert in_mem.rows == external.rows

    @settings(max_examples=25, deadline=None)
    @given(rows)
    def test_descending_is_reverse_of_ascending_keys(self, data):
        db = sort_db(data)
        asc = db.connect().execute("select k from t order by k")
        desc = db.connect().execute("select k from t order by k desc")
        assert [r[0] for r in desc.rows] == sorted(
            (r[0] for r in asc.rows), reverse=True
        )

    @settings(max_examples=25, deadline=None)
    @given(rows, st.integers(min_value=0, max_value=20))
    def test_limit_is_prefix_of_sorted(self, data, n):
        db = sort_db(data)
        full = db.connect().execute("select k, s from t order by k, s")
        limited = db.connect().execute(f"select k, s from t order by k, s limit {n}")
        assert limited.rows == full.rows[:n]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
                st.text(max_size=3),
            ),
            max_size=60,
        )
    )
    def test_nulls_sort_last(self, data):
        db = sort_db(data)
        result = db.connect().execute("select k from t order by k")
        keys = [r[0] for r in result.rows]
        first_null = next((i for i, k in enumerate(keys) if k is None), len(keys))
        assert all(k is None for k in keys[first_null:])
