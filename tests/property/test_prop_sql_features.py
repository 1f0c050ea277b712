"""Property-based tests for aggregation, DISTINCT and predicate desugaring."""

import re
from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.expr.compiler import like_pattern_to_regex
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string

rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=-100, max_value=100),
    ),
    min_size=1,
    max_size=120,
)


def make_db(data):
    db = Database()
    db.create_table(
        "t", Schema([Column("g", INTEGER), Column("v", INTEGER)]), data
    )
    db.analyze()
    return db


class TestAggregationProperties:
    @settings(max_examples=30, deadline=None)
    @given(rows)
    def test_group_by_matches_python_groupby(self, data):
        db = make_db(data)
        result = db.connect().execute(
            "select g, count(*), sum(v), min(v), max(v) from t group by g"
        )
        expected = defaultdict(list)
        for g, v in data:
            expected[g].append(v)
        assert len(result.rows) == len(expected)
        for g, count, total, lo, hi in result.rows:
            vals = expected[g]
            assert count == len(vals)
            assert total == sum(vals)
            assert lo == min(vals)
            assert hi == max(vals)

    @settings(max_examples=30, deadline=None)
    @given(rows)
    def test_global_count_equals_row_count(self, data):
        db = make_db(data)
        assert db.connect().execute("select count(*) from t").rows == [(len(data),)]

    @settings(max_examples=30, deadline=None)
    @given(rows, st.integers(min_value=0, max_value=20))
    def test_having_is_a_filter_over_groups(self, data, threshold):
        db = make_db(data)
        with_having = db.connect().execute(
            f"select g, count(*) from t group by g having count(*) > {threshold}"
        )
        without = db.connect().execute("select g, count(*) from t group by g")
        expected = [(g, c) for g, c in without.rows if c > threshold]
        assert sorted(with_having.rows) == sorted(expected)


class TestDistinctProperties:
    @settings(max_examples=30, deadline=None)
    @given(rows)
    def test_distinct_equals_set(self, data):
        db = make_db(data)
        result = db.connect().execute("select distinct g from t")
        assert sorted(r[0] for r in result.rows) == sorted({g for g, _ in data})

    @settings(max_examples=30, deadline=None)
    @given(rows)
    def test_distinct_never_increases_cardinality(self, data):
        db = make_db(data)
        plain = db.connect().execute("select g, v from t")
        distinct = db.connect().execute("select distinct g, v from t")
        assert len(distinct.rows) <= len(plain.rows)
        assert Counter(distinct.rows) == Counter(set(plain.rows))


class TestDesugaringProperties:
    @settings(max_examples=30, deadline=None)
    @given(rows, st.integers(-100, 100), st.integers(-100, 100))
    def test_between_equals_range_conjunction(self, data, a, b):
        lo, hi = min(a, b), max(a, b)
        db = make_db(data)
        sugared = db.connect().execute(f"select v from t where v between {lo} and {hi}")
        plain = db.connect().execute(f"select v from t where v >= {lo} and v <= {hi}")
        assert Counter(sugared.rows) == Counter(plain.rows)

    @settings(max_examples=30, deadline=None)
    @given(rows, st.lists(st.integers(-100, 100), min_size=1, max_size=5))
    def test_in_equals_or_chain(self, data, values):
        db = make_db(data)
        in_list = ", ".join(str(v) for v in values)
        sugared = db.connect().execute(f"select v from t where v in ({in_list})")
        expected = Counter((v,) for _, v in data if v in set(values))
        assert Counter(sugared.rows) == expected


like_patterns = st.text(
    alphabet=st.sampled_from(list("ab%_.x")), min_size=0, max_size=8
)
like_subjects = st.text(
    alphabet=st.sampled_from(list("ab.x")), min_size=0, max_size=10
)


class TestLikeProperties:
    @given(like_patterns, like_subjects)
    def test_regex_translation_semantics(self, pattern, subject):
        """The compiled regex matches iff a naive LIKE interpreter does."""
        regex = re.compile(like_pattern_to_regex(pattern), re.DOTALL)

        def naive(p, s):
            if not p:
                return not s
            if p[0] == "%":
                return any(naive(p[1:], s[i:]) for i in range(len(s) + 1))
            if p[0] == "_":
                return bool(s) and naive(p[1:], s[1:])
            return bool(s) and s[0] == p[0] and naive(p[1:], s[1:])

        assert (regex.match(subject) is not None) == naive(pattern, subject)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.text(alphabet=st.sampled_from(list("abcx")), max_size=6),
            min_size=1,
            max_size=40,
        )
    )
    def test_like_prefix_query_matches_startswith(self, names):
        db = Database()
        db.create_table(
            "n", Schema([Column("s", string(10))]), [(n,) for n in names]
        )
        db.analyze()
        result = db.connect().execute("select s from n where s like 'a%'")
        expected = Counter((n,) for n in names if n.startswith("a"))
        assert Counter(result.rows) == expected
