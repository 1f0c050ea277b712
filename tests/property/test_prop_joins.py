"""Property-based tests: all join algorithms agree with brute force.

Random small relations are joined with each physical algorithm; every
algorithm must produce exactly the multiset a nested Python loop produces.
This is the core executor-correctness invariant.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER

rows_left = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        st.integers(min_value=0, max_value=100),
    ),
    max_size=40,
)
rows_right = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        st.integers(min_value=0, max_value=100),
    ),
    min_size=1,
    max_size=40,
)


def make_db(left, right, **planner_flags):
    db = Database()
    if planner_flags:
        db.config = db.config.with_planner(**planner_flags)
    db.create_table(
        "l", Schema([Column("k", INTEGER), Column("a", INTEGER)]), left
    )
    db.create_table(
        "r", Schema([Column("k", INTEGER), Column("b", INTEGER)]), right
    )
    db.analyze()
    return db


def expected_equijoin(left, right):
    return Counter(
        (l[1], r[1])
        for l in left
        for r in right
        if l[0] is not None and l[0] == r[0]
    )


SQL = "select l.a, r.b from l, r where l.k = r.k"


class TestJoinAlgorithmsAgree:
    @settings(max_examples=40, deadline=None)
    @given(rows_left, rows_right)
    def test_hash_join_matches_brute_force(self, left, right):
        db = make_db(left, right, enable_mergejoin=False, enable_nestloop=False)
        result = db.connect().execute(SQL)
        assert Counter(result.rows) == expected_equijoin(left, right)

    @settings(max_examples=40, deadline=None)
    @given(rows_left, rows_right)
    def test_merge_join_matches_brute_force(self, left, right):
        db = make_db(left, right, enable_hashjoin=False, enable_nestloop=False)
        result = db.connect().execute(SQL)
        assert Counter(result.rows) == expected_equijoin(left, right)

    @settings(max_examples=40, deadline=None)
    @given(rows_left, rows_right)
    def test_nestloop_matches_brute_force(self, left, right):
        db = make_db(left, right, enable_hashjoin=False, enable_mergejoin=False)
        result = db.connect().execute(SQL)
        assert Counter(result.rows) == expected_equijoin(left, right)

    @settings(max_examples=30, deadline=None)
    @given(rows_left, rows_right)
    def test_inequality_join_matches_brute_force(self, left, right):
        db = make_db(left, right)
        result = db.connect().execute("select l.a, r.b from l, r where l.k <> r.k")
        expected = Counter(
            (l[1], r[1])
            for l in left
            for r in right
            if l[0] is not None and r[0] is not None and l[0] != r[0]
        )
        assert Counter(result.rows) == expected

    @settings(max_examples=30, deadline=None)
    @given(rows_left, rows_right)
    def test_filter_pushdown_preserves_semantics(self, left, right):
        db = make_db(left, right)
        result = db.connect().execute(
            "select l.a, r.b from l, r where l.k = r.k and l.a > 50"
        )
        expected = Counter(
            (l[1], r[1])
            for l in left
            for r in right
            if l[0] is not None and l[0] == r[0] and l[1] > 50
        )
        assert Counter(result.rows) == expected
