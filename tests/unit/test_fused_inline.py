"""Straight-line row loops: what the fused compiler inlines, builds and skips.

Silent computation only (contract rule 4 in docs/architecture.md): scalar
functions and LIKE as inline source, a row built once where a consumer
takes it whole, partition rows appended with the width the compiler
already has and routed by ``k % nb`` on an integer key.  Every test runs
the same statement on the row engine — closures, a tuple per operator,
``Schema.row_width`` per append — and asks for the same values, log and
clock, field for field.
"""

from __future__ import annotations

import ast
import re

import pytest

from repro.analysis.generated import is_row_loop
from repro.analysis.invariants import verify_plan
from repro.config import SystemConfig
from repro.database import Database
from repro.errors import ExecutionError, ReproError
from repro.executor.base import ExecContext
from repro.executor.fused import FusedQuery
from repro.executor.hash_join import _stable_hash
from repro.executor.work import WorkTracker
from repro.expr.functions import FUNCTIONS
from repro.sim.clock import VirtualClock
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.page import Page
from repro.storage.schema import Column, Schema
from repro.storage.types import FLOAT, INTEGER, string
from repro.workloads import queries, tpcr


def make_db(engine: str, work_mem_pages: int = 256) -> Database:
    """Two small tables with NULLs in every column but the keys."""
    config = SystemConfig(work_mem_pages=work_mem_pages).with_progress(engine=engine)
    db = Database(config=config)
    db.create_table(
        "r",
        Schema([Column("a", INTEGER), Column("b", INTEGER), Column("f", FLOAT),
                Column("s", string(30))]),
        [
            (
                i,
                None if i % 5 == 0 else i - 20,
                None if i % 7 == 0 else (i - 10) / 4,
                None if i % 3 == 0 else "xy"[i % 2] * (i % 6),
            )
            for i in range(60)
        ],
    )
    db.create_table(
        "t",
        Schema([Column("a", INTEGER), Column("c", INTEGER)]),
        [(i % 30, None if i % 4 == 0 else i - 40) for i in range(90)],
    )
    db.analyze()
    return db


def run(engine: str, sql: str, work_mem_pages: int = 256, db=None):
    db = db or make_db(engine, work_mem_pages)
    handle = db.connect().submit(sql, name="q", monitor=True)
    result = handle.result()
    typed = [[(type(v), v) for v in row] for row in result.rows]
    return typed, handle.log, db.clock.now, dict(db.disk.io_counters())


def assert_engines_agree(sql: str, work_mem_pages: int = 256):
    batch = run("batch", sql, work_mem_pages)
    row = run("row", sql, work_mem_pages)
    assert batch[0] == row[0]  # values *and* their types, in order
    assert batch[1:] == row[1:]  # ProgressLog, final clock, I/O counts
    return batch[0]


def sources(db: Database, sql: str) -> dict[bool, str]:
    """The generated text of ``sql``: ``{monitored: source}``."""
    planned = db.prepare(sql)
    specs, violations = verify_plan(planned.root)
    assert violations == []
    out = {}
    for monitored in (True, False):
        tracker = None
        if monitored:
            tracker = WorkTracker(
                [len(s.inputs) for s in specs], specs[-1].id, db.clock
            )
        ctx = ExecContext(
            db.clock, db.disk, db.buffer_pool, db.config, tracker=tracker
        )
        query = FusedQuery(planned.root, ctx)
        query.close()
        out[monitored] = query.source
    return out


def built_rows(tree: ast.AST) -> list[tuple[ast.For, ast.Assign]]:
    """Every ``oN = (...)`` with the innermost row loop it runs in."""
    found = []
    for loop in filter(is_row_loop, ast.walk(tree)):
        stack = list(loop.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
                found.append((loop, node))
            if not isinstance(node, ast.For):
                stack.extend(ast.iter_child_nodes(node))
    return found


CLOSURE_CALL = re.compile(r"\b(p|a?fn)\d+\(")

# ----------------------------------------------------------------------
# (a) scalar functions and LIKE inline


class TestInlineFunctionsAndLike:
    @pytest.mark.parametrize(
        "sql",
        [
            # filter position
            "select a from r where absolute(b) > 3",
            "select a from r where power(b, 2) > 16.0",
            "select a from r where power(absolute(b), f) >= 1.0",
            "select a from r where absolute(-3) > mod(b, 4)",
            "select a from r where s like 'x%'",
            "select a from r where s not like 'x%x'",
            "select a from r where not (s like '_y%')",
            # projection position
            "select a, absolute(b), power(b, 2), power(2, f), absolute(-3) from r",
            "select a, power(absolute(b), 2), absolute(power(f, 2)) from r",
            "select a, s like 'x%', s not like '%y', upper(s), length(s) from r",
            # join-filter position: predicates over both inputs
            "select r.a, t.c from r, t where r.a = t.a "
            "and absolute(r.b) > absolute(t.c)",
            "select r.a, t.c from r, t where r.a = t.a "
            "and power(r.b, 2) > power(t.c, 2)",
            "select r.a, t.c from r, t where r.a = t.a "
            "and (r.s like 'x%' or t.c > 10)",
            "select r.a, t.c from r, t where r.a = t.a "
            "and (r.s not like 'x%' or absolute(t.c) < 5)",
        ],
    )
    def test_same_values_as_the_closures(self, sql):
        rows = assert_engines_agree(sql)
        assert rows
        # ...and no closure is left in the text that produced them.
        for text in sources(make_db("batch"), sql).values():
            assert not CLOSURE_CALL.search(text), sql

    def test_null_in_null_out_for_every_argument(self):
        rows = assert_engines_agree(
            "select b, f, absolute(b), power(b, f), power(f, b), s like '%' from r"
        )
        for (_, b), (_, f), (_, ab), (_, bf), (_, fb), (_, like) in rows:
            assert (ab is None) == (b is None)
            assert (bf is None) == (fb is None) == (b is None or f is None)
        assert {like for *_, (_, like) in rows} == {None, True}

    def test_paper_filters_have_no_closure_call(self):
        db = tpcr.build_database(scale=0.002, subset_rows=60)
        for name in ("Q2", "Q4"):
            for text in sources(db, queries.PAPER_QUERIES[name]).values():
                assert not CLOSURE_CALL.search(text)
                assert re.search(r"\bsf\d+\(", text)  # absolute(), bound raw

    def test_in_subquery_still_takes_its_closure(self):
        sql = "select a from r where b in (select c from t where c < 0)"
        assert assert_engines_agree(sql)
        text = sources(make_db("batch"), sql)[False]
        assert CLOSURE_CALL.search(text)

    def test_registry_keeps_both_callables(self):
        assert sorted(FUNCTIONS) == [
            "abs", "absolute", "ceil", "floor", "length", "lower", "mod",
            "power", "sqrt", "upper",
        ]
        for func in FUNCTIONS.values():
            assert func.evaluate(*[None] * func.arity) is None
        assert FUNCTIONS["absolute"].fn is abs
        assert FUNCTIONS["power"].fn(2, 3) == FUNCTIONS["power"].evaluate(2, 3) == 8


# ----------------------------------------------------------------------
# (b) each row is built once


class TestRowsBuiltOnce:
    @pytest.mark.parametrize(
        "sql, work_mem_pages",
        [
            # join -> permuting projection
            ("select t.c, r.s, r.a from r, t where r.a = t.a", 256),
            # join -> join (the first join's output is the second's probe row)
            ("select r.s, t.c, u.c from r, t, t u "
             "where r.a = t.a and t.a = u.a and r.a < 9", 256),
            ("select r.s, t.c, u.c from r, t, t u "
             "where r.a = t.a and t.a = u.a and r.a < 9", 1),
            # join -> sort: absorbed whole, streamed again (two production sites)
            ("select r.s, t.c from r, t where r.a = t.a order by t.c, r.s", 256),
            ("select r.s, t.c from r, t where r.a = t.a order by t.c, r.s", 1),
            # join -> LIMIT, -> DISTINCT, -> aggregate
            ("select t.c, r.a from r, t where r.a = t.a limit 7", 256),
            ("select distinct r.s, t.a from r, t where r.a = t.a", 256),
            ("select r.s, count(*), sum(t.c) from r, t where r.a = t.a group by r.s", 256),
            # a computed slot is built where it is defined
            ("select r.a * 2, r.s, t.c + r.b from r, t where r.a = t.a", 256),
            ("select r.a * 2, r.s from r where r.b > 0 order by r.s", 256),
        ],
    )
    def test_same_rows_log_and_clock(self, sql, work_mem_pages):
        assert assert_engines_agree(sql, work_mem_pages)

    @pytest.mark.parametrize("name", ["Q2", "Q5"])
    def test_one_tuple_per_output_row(self, name):
        config = SystemConfig(work_mem_pages=4)
        db = tpcr.build_database(scale=0.002, subset_rows=60, config=config)
        for text in sources(db, queries.PAPER_QUERIES[name]).values():
            tree = ast.parse(text)
            (driver,) = [
                n for n in ast.walk(tree)
                if isinstance(n, ast.Call) and ast.unparse(n.func) == "out_append"
            ]
            built = built_rows(tree)
            inner = [a for loop, a in built if driver in ast.walk(loop)]
            # The loop that feeds the driver builds the one tuple it hands over
            (row,) = {ast.unparse(a) for a in inner}
            assert row.split(" = ")[0] == ast.unparse(driver.args[0])
            # ...straight from scanned / partition rows, never another tuple.
            bases = {e.value.id for a in inner for e in a.value.elts}
            assert all(re.fullmatch(r"(br|ir|r)\d+", b) for b in bases), bases
            # Every row any loop builds is read whole somewhere.
            for _, assign in built:
                target = assign.targets[0].id
                assert re.search(rf"[(\[]{target}[)\],]", text), target

    def test_a_computed_slot_is_evaluated_where_the_row_engine_does(self):
        """The projection's division runs for every join row even though
        LIMIT's consumer never reads that slot by itself."""
        sql = "select r.a, t.c / (r.a - 4) from r, t where r.a = t.a"
        for engine in ("batch", "row"):
            with pytest.raises(ExecutionError, match="division by zero"):
                make_db(engine).connect().execute(sql)

    def test_monitored_scan_tests_its_start_once_per_page(self):
        db = tpcr.build_database(scale=0.002, subset_rows=60)
        for name in ("Q1", "Q2"):
            text = sources(db, queries.PAPER_QUERIES[name])[True]
            for loop in filter(is_row_loop, ast.walk(ast.parse(text))):
                flags = [
                    n for n in ast.walk(loop)
                    if isinstance(n, ast.Name) and re.fullmatch(r"seg\d+_\d+st", n.id)
                ]
                page_loops = [
                    n for n in ast.walk(loop)
                    if isinstance(n, ast.For) and not is_row_loop(n)
                ]
                assert not flags or page_loops, ast.unparse(loop)[:200]


# ----------------------------------------------------------------------
# (c) one call per spilled row


def reference_append(schema: Schema, page_size: int, pages: list, row) -> None:
    """``HeapFile.append`` as it was: the fit rule spelled out per row."""
    width = schema.row_width(row)
    if not pages or (pages[-1].rows and pages[-1].bytes_used + width > page_size):
        pages.append(Page(page_size))
    pages[-1].rows.append(tuple(row))
    pages[-1].bytes_used += width


STRING_SCHEMA = Schema(
    [Column("k", INTEGER), Column("s", string(400)), Column("n", string(40))]
)
FIXED_SCHEMA = Schema([Column("k", INTEGER), Column("x", FLOAT), Column("d", INTEGER)])


class TestHeapAppend:
    @pytest.mark.parametrize(
        "schema, rows",
        [
            (FIXED_SCHEMA, [(i, i / 3, -i) for i in range(700)]),
            (STRING_SCHEMA, [
                (i, None if i % 11 == 0 else "s" * (i * 37 % 400),
                 "" if i % 5 == 0 else "n" * (i % 40))
                for i in range(300)
            ]),
            # a row wider than a page gets a page to itself
            (STRING_SCHEMA, [(1, "a" * 10, "b"), (2, "w" * 400, "w" * 40),
                             (3, "c", None), (4, "w" * 399, "v" * 40)]),
        ],
        ids=["fixed", "strings", "wider-than-a-page"],
    )
    @pytest.mark.parametrize("given_width", [False, True])
    def test_page_boundaries(self, schema, rows, given_width):
        page_size = 256
        disk = SimulatedDisk(VirtualClock(), SystemConfig().cost)
        heap = HeapFile("h", schema, disk, page_size)
        want: list[Page] = []
        for row in rows:
            if given_width:
                heap.append(row, schema.row_width(row))
            else:
                heap.append(row)
            reference_append(schema, page_size, want, row)
        heap.flush()
        got = list(heap.iter_pages())
        assert [(p.rows, p.bytes_used) for p in got] == [
            (p.rows, p.bytes_used) for p in want
        ]
        assert heap.num_pages == len(want)
        assert heap.num_tuples == len(rows)
        assert heap.total_bytes == sum(p.bytes_used for p in want)

    def test_a_row_that_does_not_fit_rolls_the_page(self):
        disk = SimulatedDisk(VirtualClock(), SystemConfig().cost)
        heap = HeapFile("h", FIXED_SCHEMA, disk, 64)
        heap.append((1, 0.0, 1), 40)
        heap.append((2, 0.0, 2), 40)
        assert heap.page.rows == [(2, 0.0, 2)]
        assert [p.rows for p in heap.iter_pages()] == [[(1, 0.0, 1)]]

    def test_partition_sink_writes_the_row_engines_pages(self):
        """The fused sink fills the open page inline: every page write (file,
        rows, bytes, instant) is the row engine's ``HeapFile.append``'s.
        ``r``'s rows are 32 bytes, so 256 of them fill a page exactly."""

        def writes(engine):
            config = SystemConfig(work_mem_pages=1).with_progress(engine=engine)
            db = Database(config=config)
            db.create_table(
                "l", Schema([Column("k", INTEGER), Column("p", string(8))]),
                [(i % 97, None if i % 3 else "x" * (i % 9)) for i in range(3000)],
            )
            db.create_table(
                "r", Schema([Column("k", INTEGER), Column("v", INTEGER)]),
                [(i % 89, i) for i in range(6000)],
            )
            db.analyze()
            log = []
            append_page = db.disk.append_page

            def recorded(handle, page, charge_io=True):
                append_page(handle, page, charge_io)
                log.append((handle.name.rsplit("_", 1)[-1], list(page.rows),
                            page.bytes_used, db.clock.now))

            db.disk.append_page = recorded
            sql = "select l.p, r.v from l, r where l.k = r.k"
            assert "batches)" in db.explain(sql)
            db.connect().submit(sql, monitor=True).result()
            return log

        fused = writes("batch")
        assert fused == writes("row")
        assert any(len(rows) == 256 and used == 8192 for _, rows, used, _ in fused)

    def test_integer_routing_is_the_stable_hash(self):
        keys = [0, 1, -1, -7, 2**31, -(2**31) - 5, 2**63 + 11, -(2**70), True]
        for key in keys:
            for nb in (2, 3, 7, 64):
                assert key % nb == _stable_hash(key) % nb, (key, nb)

    def test_partitions_of_odd_integer_keys(self):
        """Negative, zero and large keys route — and join — as before."""
        keys = [0, -1, -7, 5, 2**31, -(2**31) - 5, 2**40 + 3, -(2**45)]

        def build(engine):
            config = SystemConfig(work_mem_pages=1).with_progress(engine=engine)
            db = Database(config=config)
            schema = Schema([Column("k", INTEGER), Column("pad", string(120))])
            db.create_table(
                "big", schema, [(keys[i % 8] + (i % 3), "p" * 100) for i in range(400)]
            )
            db.create_table(
                "also", Schema([Column("k", INTEGER), Column("v", INTEGER)]),
                [(keys[i % 8] + (i % 2), i) for i in range(300)],
            )
            db.analyze()
            return db

        sql = "select b.k, a.v, b.pad from big b, also a where b.k = a.k"
        assert "batches)" in build("batch").explain(sql)
        batch = run("batch", sql, db=build("batch"))
        row = run("row", sql, db=build("row"))
        assert batch == row and len(batch[0]) > 1000
        text = sources(build("batch"), sql)[False]
        assert re.search(r"= k\d+ % \d+ if", text) and "_g_sh" not in text


# ----------------------------------------------------------------------
# satellite: division by zero is an engine error


class TestDivisionByZero:
    #: Final ``clock.now`` of each statement at the commit before the
    #: translation: the failure still happens at the same row.
    CASES = {
        "projection": ("select acctbal / (custkey - 5) from customer", 0.1696),
        "filter": (
            "select custkey from customer where acctbal / (custkey - 5) > 1", 0.1955
        ),
        "join filter, spilling": (
            "select c.custkey, o.orderkey from customer c, orders o "
            "where c.custkey = o.custkey and o.totalprice / (c.custkey - 5) > 1",
            12.023099999999856,
        ),
    }

    @pytest.mark.parametrize("engine", ["batch", "row"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_translated_once_at_the_executor_boundary(self, engine, case):
        sql, clock_at_failure = self.CASES[case]
        config = SystemConfig(work_mem_pages=1).with_progress(engine=engine)
        db = tpcr.build_database(scale=0.002, subset_rows=60, config=config)
        handle = db.connect().submit(sql)
        with pytest.raises(ExecutionError, match="division by zero") as info:
            handle.result()
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert handle.state == "failed"
        assert db.buffer_pool.pinned_count == 0
        assert db.disk.temp_file_count() == 0
        assert db.clock.now == clock_at_failure
