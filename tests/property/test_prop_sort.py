"""Property-based tests: sorting invariants (in-memory and external)."""

import heapq
import math
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.database import Database
from repro.executor.base import ExecContext
from repro.executor.sort import SortRuns, make_sort_key
from repro.planner.physical import PlanColumn, SortNode
from repro.storage.schema import Column, Schema
from repro.storage.types import DATE, FLOAT, INTEGER, string

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


# ----------------------------------------------------------------------
# the native sort key against a reference comparator


class RefPart:
    """One key component with the semantics the native key must keep:
    NULLS LAST, optional descending order, ``==`` by value."""

    __slots__ = ("is_null", "value", "descending")

    def __init__(self, value, descending: bool):
        self.is_null = value is None
        self.value = value
        self.descending = descending

    def __lt__(self, other: "RefPart") -> bool:
        if self.is_null != other.is_null:
            return other.is_null  # non-null sorts before null
        if self.is_null:
            return False
        if self.descending:
            return other.value < self.value
        return self.value < other.value

    def __eq__(self, other) -> bool:
        return self.is_null == other.is_null and self.value == other.value


def ref_key(parts):
    """The reference ``row -> key`` (a lone ASC component is not wrapped)."""
    if len(parts) == 1 and parts[0][1]:
        slot = parts[0][0]
        return lambda row: RefPart(row[slot], False)
    return lambda row: tuple(RefPart(row[slot], not asc) for slot, asc in parts)


#: Row layout of the oracle: one column per value kind.
KINDS = [INTEGER, FLOAT, DATE, string(8)]
VALUES = [
    st.integers(min_value=-(2**40), max_value=2**40),
    st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([-0.0, 0.0, math.inf, -math.inf]),
    ),
    st.integers(min_value=-3, max_value=3),  # few dates: many ties
    st.text(alphabet="ab", max_size=3),
]
oracle_rows = st.lists(
    st.tuples(*(st.one_of(st.none(), v) for v in VALUES)), max_size=40
)
oracle_keys = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
    min_size=1,
    max_size=3,
    unique_by=lambda part: part[0],
)


def sort_node(parts) -> SortNode:
    columns = [
        PlanColumn((0, i), f"c{i}", kind, 8.0) for i, kind in enumerate(KINDS)
    ]
    keys = [((0, slot), asc) for slot, asc in parts]
    return SortNode(None, keys, columns, 0.0)


def merged_order(rows, key, cut):
    """Indices of ``rows`` as ``heapq.merge`` of runs pre-sorted by ``key``."""
    runs = [
        sorted(range(lo, min(lo + cut, len(rows))), key=lambda i: key(rows[i]))
        for lo in range(0, len(rows), cut)
    ]
    return list(heapq.merge(*runs, key=lambda i: key(rows[i])))


class TestNativeSortKey:
    @settings(max_examples=150, deadline=None)
    @given(oracle_rows, oracle_keys, st.integers(min_value=1, max_value=9))
    def test_native_key_orders_like_the_reference(self, rows, parts, cut):
        native = make_sort_key(sort_node(parts))
        ref = ref_key(parts)
        for a in rows:
            for b in rows:
                assert (native(a) < native(b)) == (ref(a) < ref(b)), (a, b)
        order = list(range(len(rows)))
        assert sorted(order, key=lambda i: native(rows[i])) == sorted(
            order, key=lambda i: ref(rows[i])
        )
        assert merged_order(rows, native, cut) == merged_order(rows, ref, cut)
        # the one-sort cascade: a stable sort of the runs in run order
        concatenated = [
            i
            for lo in range(0, len(rows), cut)
            for i in sorted(
                range(lo, min(lo + cut, len(rows))), key=lambda i: native(rows[i])
            )
        ]
        assert sorted(concatenated, key=lambda i: native(rows[i])) == merged_order(
            rows, native, cut
        )

    @settings(max_examples=40, deadline=None)
    @given(oracle_keys)
    def test_a_shared_nan_compares_like_the_reference(self, parts):
        nan = float("nan")
        rows = [(1, nan, 0, "a"), (1, nan, 0, "b"), (None, nan, None, None)]
        native = make_sort_key(sort_node(parts))
        ref = ref_key(parts)
        for a in rows:
            for b in rows:
                assert (native(a) < native(b)) == (ref(a) < ref(b)), (a, b)


null_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-4, max_value=4)),
        st.one_of(st.none(), st.text(alphabet="xyz", max_size=6)),
    ),
    min_size=60,
    max_size=160,
)


def cascades(db: Database, sql: str) -> tuple[list, int]:
    """``sql``'s rows and how many runs the sort's cascade merged away."""
    merged_away = []
    collapse = SortRuns.collapse

    def counted(self):
        before = len(self.runs)
        yield from collapse(self)
        merged_away.append(before - len(self.runs))

    with mock.patch.object(SortRuns, "collapse", counted):
        rows = db.connect().execute(sql).rows
    return rows, sum(merged_away)


class TestMixedDirectionOrder:
    @settings(max_examples=20, deadline=None)
    @given(null_rows)
    def test_in_memory_external_and_stable_sort_agree(self, data):
        sql = "select k, s from t order by k desc, s"
        in_memory, merged = cascades(sort_db(data, work_mem_pages=256), sql)
        assert merged == 0
        config = SystemConfig(work_mem_pages=1, page_size=512)
        db = Database(config=config)
        db.create_table(
            "t", Schema([Column("k", INTEGER), Column("s", string(20))]), data
        )
        db.analyze()
        external, merged = cascades(db, sql)
        assert merged > 0
        # Python's stable sort of heap order: by s, then by k descending
        by_s = sorted(data, key=lambda r: (r[1] is None, r[1] or ""))
        expected = sorted(
            by_s, key=lambda r: (r[0] is not None, r[0] or 0), reverse=True
        )
        assert in_memory == external == expected


class TestCascadeMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(oracle_rows, min_size=3, max_size=8),
        oracle_keys,
        st.integers(min_value=2, max_value=3),
    )
    def test_one_sort_cascade_is_the_heapq_merge_cascade(self, chunks, parts, fanout):
        """Groups merge into the same runs, ties by run index, as
        ``heapq.merge`` did: the row number (no key) shows tie order."""
        db = Database(config=SystemConfig(work_mem_pages=fanout))
        ctx = ExecContext(db.clock, db.disk, db.buffer_pool, db.config)
        node = sort_node(parts)
        node.columns.append(PlanColumn((0, 4), "n", INTEGER, 4.0))
        sort = SortRuns(node, ctx)
        want = []
        n = 0
        for chunk in chunks:
            rows = [row + (n + i,) for i, row in enumerate(chunk)]
            n += len(rows)
            want.append(sorted(rows, key=sort.key))
            for _ in sort.spill(rows, [sort.schema.row_width(r) for r in rows]):
                pass
        while len(want) > fanout:
            group = want[:fanout]
            want = want[fanout:] + [list(heapq.merge(*group, key=sort.key))]
        for _ in sort.collapse():
            pass
        assert [list(run.iter_rows()) for run in sort.runs] == want
        sort.drop()
        assert db.disk.temp_file_count() == 0
