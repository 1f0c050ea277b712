"""Unit tests: every plan/segment invariant rejects a broken plan.

Each test takes a real optimizer plan, breaks exactly one structural
property the paper's estimator relies on, and asserts the verifier flags
it under the right rule id.  A clean plan must produce zero violations.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.cli import check_compiled
from repro.analysis.generated import check_program
from repro.analysis.invariants import (
    INVARIANT_RULES,
    collect_nodes,
    verify_plan,
    verify_segments,
)
from repro.config import SystemConfig
from repro.core.segments import build_segments
from repro.database import Database
from repro.executor.fused import _Compiler, code_cache_clear
from repro.planner.physical import HashJoinNode, SeqScanNode, SortNode
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string


def make_db(work_mem_pages: int = 256) -> Database:
    db = Database(config=SystemConfig(work_mem_pages=work_mem_pages))
    db.create_table(
        "r",
        Schema([Column("a", INTEGER), Column("b", INTEGER), Column("s", string(30))]),
        [(i, i % 7, "x" * (i % 20)) for i in range(400)],
    )
    db.create_table(
        "t",
        Schema([Column("a", INTEGER), Column("c", INTEGER)]),
        [(i % 200, i) for i in range(600)],
    )
    db.analyze()
    return db


def segmented(db: Database, sql: str):
    planned = db.prepare(sql)
    specs = build_segments(planned.root)
    return planned.root, specs


def rule_ids(violations) -> set[str]:
    return {v.rule for v in violations}


#: A plan with a blocking aggregate, a sort and an in-memory hash join.
RICH_SQL = (
    "select r.b, count(*) from r, t where r.a = t.a group by r.b order by r.b"
)


class TestCleanPlans:
    @pytest.mark.parametrize(
        "sql",
        [
            "select * from r",
            "select r.a from r where r.b = 3 order by r.a limit 5",
            RICH_SQL,
            "select r.a, t.c from r, t where r.a = t.a",
        ],
    )
    def test_optimizer_plans_verify_clean(self, sql):
        root, specs = segmented(make_db(), sql)
        assert verify_segments(root, specs) == []

    def test_multi_batch_plan_verifies_clean(self):
        root, specs = segmented(
            make_db(work_mem_pages=1), "select r.a, t.c from r, t where r.a = t.a"
        )
        join = next(n for n in collect_nodes(root) if isinstance(n, HashJoinNode))
        assert join.num_batches > 1  # precondition: Figure 3 shape present
        assert verify_segments(root, specs) == []

    def test_verify_plan_builds_and_checks(self):
        db = make_db()
        planned = db.prepare(RICH_SQL)
        specs, violations = verify_plan(planned.root)
        assert violations == []
        assert [s.id for s in specs] == list(range(len(specs)))


class TestEachInvariantRejects:
    """One deliberately-broken plan per registered rule."""

    def test_dense_ids(self):
        root, specs = segmented(make_db(), RICH_SQL)
        specs[0].id = 99
        assert "dense-ids" in rule_ids(verify_segments(root, specs))

    def test_single_final_none(self):
        root, specs = segmented(make_db(), RICH_SQL)
        specs[-1].final = False
        assert "single-final" in rule_ids(verify_segments(root, specs))

    def test_single_final_multiple(self):
        root, specs = segmented(make_db(), RICH_SQL)
        specs[0].final = True
        assert "single-final" in rule_ids(verify_segments(root, specs))

    def test_topological_order(self):
        root, specs = segmented(make_db(), RICH_SQL)
        child_inp = next(
            i for s in specs for i in s.inputs if i.kind == "child"
        )
        child_inp.child_segment = len(specs) - 1  # forward reference
        holder = next(s for s in specs if child_inp in s.inputs)
        if holder.id == len(specs) - 1:
            child_inp.child_segment = holder.id  # self reference
        assert "topological-order" in rule_ids(verify_segments(root, specs))

    def test_dominant_count(self):
        root, specs = segmented(make_db(), RICH_SQL)
        for inp in specs[0].inputs:
            inp.dominant = False
        assert "dominant-count" in rule_ids(verify_segments(root, specs))

    def test_hash_probe_dominance(self):
        root, specs = segmented(
            make_db(), "select r.a, t.c from r, t where r.a = t.a"
        )
        join = next(n for n in collect_nodes(root) if isinstance(n, HashJoinNode))
        assert join.num_batches == 1
        seg, idx = join.pi_hash_input_ref
        specs[seg].inputs[idx].dominant = True
        assert "hash-probe-dominance" in rule_ids(verify_segments(root, specs))

    def test_blocking_closes_segment_missing(self):
        root, specs = segmented(make_db(), RICH_SQL)
        sort = next(n for n in collect_nodes(root) if isinstance(n, SortNode))
        sort.pi_sort_segment = None
        assert "blocking-closes-segment" in rule_ids(verify_segments(root, specs))

    def test_blocking_closes_segment_shared(self):
        root, specs = segmented(make_db(), RICH_SQL)
        sort = next(n for n in collect_nodes(root) if isinstance(n, SortNode))
        sort.pi_sort_segment = sort.segment_id
        assert "blocking-closes-segment" in rule_ids(verify_segments(root, specs))

    def test_figure3_shape(self):
        root, specs = segmented(
            make_db(work_mem_pages=1), "select r.a, t.c from r, t where r.a = t.a"
        )
        join = next(n for n in collect_nodes(root) if isinstance(n, HashJoinNode))
        assert join.num_batches > 1
        # Swap PA/PB dominance: PA dominant, PB not — breaks rule 2b's
        # "probe partitions drive progress".
        pa_seg, pa_idx = join.pi_pa_input_ref
        pb_seg, pb_idx = join.pi_pb_input_ref
        specs[pa_seg].inputs[pa_idx].dominant = True
        specs[pb_seg].inputs[pb_idx].dominant = False
        assert "figure3-shape" in rule_ids(verify_segments(root, specs))

    def test_byte_conservation_never_consumed(self):
        root, specs = segmented(make_db(), RICH_SQL)
        consumer = next(
            s for s in specs if any(i.kind == "child" for i in s.inputs)
        )
        consumer.inputs = [i for i in consumer.inputs if i.kind != "child"]
        assert "byte-conservation" in rule_ids(verify_segments(root, specs))

    def test_byte_conservation_double_counted(self):
        root, specs = segmented(make_db(), RICH_SQL)
        import copy

        consumer = next(
            s for s in specs if any(i.kind == "child" for i in s.inputs)
        )
        child_inp = next(i for i in consumer.inputs if i.kind == "child")
        dup = copy.copy(child_inp)
        dup.index = len(consumer.inputs)
        dup.dominant = False
        consumer.inputs.append(dup)
        assert "byte-conservation" in rule_ids(verify_segments(root, specs))

    def test_estimates_nonnegative(self):
        root, specs = segmented(make_db(), RICH_SQL)
        specs[0].est_output_rows = -5.0
        assert "estimates-nonnegative" in rule_ids(verify_segments(root, specs))

    def test_estimates_nonnegative_nan(self):
        root, specs = segmented(make_db(), RICH_SQL)
        specs[0].inputs[0].est_rows = float("nan")
        assert "estimates-nonnegative" in rule_ids(verify_segments(root, specs))

    def test_card_factor(self):
        root, specs = segmented(make_db(), RICH_SQL)
        specs[0].card_factor *= 10.0
        assert "card-factor" in rule_ids(verify_segments(root, specs))

    def test_annotations_present_missing_ref(self):
        root, specs = segmented(make_db(), RICH_SQL)
        scan = next(n for n in collect_nodes(root) if isinstance(n, SeqScanNode))
        scan.pi_input_ref = None
        assert "annotations-present" in rule_ids(verify_segments(root, specs))

    def test_annotations_present_wrong_kind(self):
        root, specs = segmented(make_db(), RICH_SQL)
        # Point a scan's base-input ref at a child input slot.
        target = next(
            (s.id, i.index)
            for s in specs
            for i in s.inputs
            if i.kind == "child"
        )
        scan = next(n for n in collect_nodes(root) if isinstance(n, SeqScanNode))
        scan.pi_input_ref = target
        assert "annotations-present" in rule_ids(verify_segments(root, specs))

    def test_annotations_present_missing_segment_id(self):
        root, specs = segmented(make_db(), RICH_SQL)
        collect_nodes(root)[0].segment_id = None
        assert "annotations-present" in rule_ids(verify_segments(root, specs))

    def test_cost_consistency(self):
        root, specs = segmented(make_db(), RICH_SQL)
        specs[0].est_extra_bytes = float("inf")
        assert "cost-consistency" in rule_ids(verify_segments(root, specs))


def test_every_registered_rule_has_a_rejection_test():
    """Meta-check: the class above covers each registered invariant."""
    covered = set()
    for name in dir(TestEachInvariantRejects):
        if name.startswith("test_"):
            covered.add(name[len("test_"):])
    for rule_id in INVARIANT_RULES:
        slug = rule_id.replace("-", "_")
        assert any(c.startswith(slug) for c in covered), (
            f"no rejection test for invariant {rule_id!r}"
        )


# ----------------------------------------------------------------------
# generated-program checks (repro.analysis.generated)

FLUSH = (
    "if nout:\n"
    "    yield _B(out)\n"
    "    out = []\n"
    "    out_append = out.append\n"
    "    nout = 0\n"
)


def program(body: str) -> str:
    """A generated-looking ``_fused_run`` around ``body`` (4-space units)."""
    head = (
        "out = []\nout_append = out.append\nnout = 0\n"
        "h = _g_h0\nrows = _g_rows0\nsearch = _g_search0\n"
    )
    return "def _fused_run():\n" + textwrap.indent(head + body, "    ")


#: One heap-scan page loop the way fused.py writes it: fetch, rows, pulse.
PAGE_LOOP = (
    "get1 = _g_get1\n"
    "for pno2 in range(3):\n"
    "    pg3 = get1(h, pno2, sequential=True)\n"
    "    for r4 in pg3.rows:\n"
    "        out_append(r4)\n"
    "        nout += 1\n"
    + textwrap.indent(FLUSH + "yield PULSE\n", "    ")
)


def generated_rules(body: str, monitored: bool = True) -> list[str]:
    return [v.rule for v in check_program(program(body), monitored)]


class TestEachGeneratedCheckRejects:
    def test_the_fixture_itself_is_clean(self):
        assert generated_rules(PAGE_LOOP) == []
        assert generated_rules(PAGE_LOOP, monitored=False) == []
        # A loop over spill partitions owns no fetch: its page loops do.
        nested = "for b5 in range(2):\n" + textwrap.indent(PAGE_LOOP, "    ")
        assert generated_rules(nested) == []

    def test_pulse_flush(self):
        assert generated_rules("yield PULSE\n") == ["pulse-flush"]
        assert generated_rules(FLUSH + "x = 1\nyield PULSE\n") == ["pulse-flush"]
        assert generated_rules("if nout:\n    nout = 0\nyield PULSE\n") == [
            "pulse-flush"
        ]

    @pytest.mark.parametrize(
        "loop, named",
        [
            ("get1 = _g_get1\nfor pno2 in range(3):\n"
             "    pg3 = get1(h, pno2, sequential=True)\n", "seq-scan page loop"),
            ("get1 = _g_get1\nfor k2, rid3 in search:\n"
             "    pg4 = get1(h, rid3[0], sequential=False)\n", "index-scan page loop"),
            ("dread1 = _g_dread1\nfor pno2 in range(h.num_pages):\n"
             "    pg3 = dread1(h, pno2, sequential=True)\n", "spill-partition page loop"),
        ],
        ids=["seq-scan", "index-scan", "spill-partition"],
    )
    def test_page_loop_pulse(self, loop, named):
        (violation,) = check_program(program(loop), monitored=True)
        assert violation.rule == "page-loop-pulse" and named in violation.message
        # A pulse that only a nested row loop reaches is not the page loop's.
        inner = loop + "    for r in rows:\n" + textwrap.indent(
            FLUSH + "yield PULSE\n", "        "
        )
        assert generated_rules(inner) == ["page-loop-pulse"]

    def test_row_loop_counts(self):
        row_loop = "seg0_1 = _g_seg0_1\nn2 = 0\nfor r3 in rows:\n"
        assert generated_rules(row_loop + "    n2 += 1\n") == []
        for store in ("seg0_1.output_rows += 1", "seg0_1.input_bytes[0] += 36",
                      "seg0_1.started = True"):
            assert generated_rules(row_loop + f"    {store}\n") == [
                "row-loop-counts"
            ], store
        # Per page (a range() loop) the cold call sites do push.
        assert generated_rules(
            "seg0_1 = _g_seg0_1\nfor pno in range(3):\n    seg0_1.output_rows += 1\n"
        ) == []

    @pytest.mark.parametrize(
        "line", ["seg0_1 = _g_seg0_1", "_g_trin5(0, 0, 1, 36)",
                 "def _sync():\n    pass", "def f():\n    nonlocal nout"],
        ids=["segment", "tracker-method", "sync", "nonlocal"],
    )
    def test_row_loop_counts_plain_program_has_no_tracker_code(self, line):
        assert "row-loop-counts" in generated_rules(line + "\n", monitored=False)

    @pytest.mark.parametrize(
        "line", ["b = hash(k) % 4", "nm = id(node)", "import os", "from os import x",
                 "f = open(p)", "eval(s)", "exec(s)", "m = __import__('os')",
                 "t = time.time()"],
    )
    def test_closed_vocabulary(self, line):
        assert generated_rules("k = node = p = s = 0\n" + line + "\n") == [
            "closed-vocabulary"
        ]

    def test_row_built_once(self):
        loop = "for r1 in rows:\n    for br2 in rows:\n"
        pad = " " * 8
        once = loop + pad + "o3 = (br2[0], r1[1])\n" + pad + "out_append(o3)\n"
        assert generated_rules(once) == []
        # Built, and only ever read slot by slot from its sources: dead.
        assert generated_rules(loop + pad + "o3 = (br2[0], r1[1])\n") == [
            "row-built-once"
        ]
        # The join's tuple exists only to be permuted into the projection's.
        twice = once.replace("out_append(o3)", "o4 = (o3[1], o3[0])\n" + pad + "out_append(o4)")
        assert generated_rules(twice) == ["row-built-once"]
        # Picks from a row built by an *enclosing* loop body are one tuple
        # per row of this loop.
        outer = "for r1 in rows:\n    o2 = (r1[0], r1[0] * 2)\n    out_append(o2)\n"
        assert generated_rules(
            outer + "    for br3 in rows:\n        o4 = (o2[1],)\n        out_append(o4)\n"
        ) == []

    @pytest.mark.parametrize("call", ["p2(r1)", "fn2(r1)", "afn2(r1)"])
    def test_row_loop_closures(self, call):
        body = f"p2 = fn2 = afn2 = _g_p2\nfor r1 in rows:\n    x = {call}\n"
        assert generated_rules(body) == ["row-loop-closures"]
        # ...unless the plan holds a shape the compiler does not inline.
        assert check_program(program(body), True, closures=True) == []
        # Bound functions and a partition's methods are not closures.
        assert generated_rules(
            "sf2 = like3 = _g_sf2\nfor p4 in rows:\n    p4.flush()\n"
            "    x = sf2(p4[0]) if like3(p4[1]) else 0\n"
        ) == []

    def test_closed_vocabulary_accepts_the_compilers_names(self):
        body = (
            "sh1 = _g_sh1\nrows = [(1,)]\n"
            "for i, r in enumerate(rows, 1):\n"
            "    b = sh1(r[0]) % 4 if len(r) else max(1, i)\n"
            "    for _sk in _ONE:\n"
            "        out_append(tuple(r))\n"
            "for r in heapq.merge(rows, iter(rows)):\n"
            "    raise _Stop\n"
        )
        assert generated_rules(body) == []


def test_every_generated_check_has_a_rejection_test():
    tests = [n for n in dir(TestEachGeneratedCheckRejects) if n.startswith("test_")]
    for rule in ("pulse-flush", "page-loop-pulse", "row-loop-counts",
                 "row-built-once", "row-loop-closures", "closed-vocabulary"):
        assert any(t.startswith("test_" + rule.replace("-", "_")) for t in tests)


class TestMutantsOfTheCompiler:
    """The mutants no analyzer command noticed before ``verify`` read the
    generated text: each is replayed by patching ``_Compiler._emit_pulse``."""

    @pytest.fixture(autouse=True)
    def no_mutant_program_outlives_its_test(self):
        yield
        code_cache_clear()

    def violations(self, sql=RICH_SQL):
        code_cache_clear()  # programs are cached by plan shape, not compiler
        db = make_db(work_mem_pages=1)
        planned = db.prepare(sql)
        specs, violations = verify_plan(planned.root)
        assert violations == []
        return check_compiled(planned.root, specs, db)

    def test_the_unpatched_compiler_is_clean(self):
        assert self.violations() == []

    def test_seq_scan_page_loop_without_its_pulse(self, monkeypatch):
        """fused.py ``_seq_scan``: ``self._emit_pulse()`` -> ``pass``."""
        real_scan, real_pulse = _Compiler._seq_scan, _Compiler._emit_pulse
        in_scan = []

        def seq_scan(self, node, consume):
            in_scan.append(True)
            real_scan(self, node, consume)

        def emit_pulse(self):
            # The scan's own pulse is the first one emitted after it starts
            # (its consumers emit theirs only at their own page loops).
            if in_scan and in_scan.pop():
                return
            real_pulse(self)

        monkeypatch.setattr(_Compiler, "_seq_scan", seq_scan)
        monkeypatch.setattr(_Compiler, "_emit_pulse", emit_pulse)
        found = self.violations("select * from r")
        assert [v.rule for v in found] == ["page-loop-pulse"] * 2  # both modes
        assert all("seq-scan page loop `for pno" in v.message for v in found)

    def test_every_pulse_dropped(self, monkeypatch):
        monkeypatch.setattr(_Compiler, "_emit_pulse", lambda self: None)
        found = self.violations("select r.a, t.c from r, t where r.a = t.a")
        assert {v.rule for v in found} == {"page-loop-pulse"}
        kinds = {v.message.split(": ")[1].split(" page loop")[0] for v in found}
        assert kinds == {"seq-scan", "spill-partition"}

    JOIN_SQL = "select r.a, t.c from r, t where r.a = t.a and absolute(r.b) > 0"

    def test_a_tuple_per_operator(self, monkeypatch):
        """fused.py ``_tuple``: defer nothing — build every row where it is
        named; then also ``_src``: a pick of a pick reads the pick (together
        the text as it was before rows were built once)."""
        real = _Compiler._tuple
        assert self.violations(self.JOIN_SQL) == []
        monkeypatch.setattr(
            _Compiler, "_tuple", lambda self, parts: self._whole(real(self, parts))
        )
        found = self.violations(self.JOIN_SQL)
        assert {v.rule for v in found} == {"row-built-once"}
        assert all("built and never read" in v.message for v in found)
        monkeypatch.setattr(_Compiler, "_src", lambda self, row, slot: (row, slot))
        found = self.violations(self.JOIN_SQL)
        assert {v.rule for v in found} == {"row-built-once"}
        assert all("only permutes" in v.message for v in found)

    def test_function_predicate_left_to_its_closure(self, monkeypatch):
        """fused.py ``_value_src``: no ``FunctionExpr`` case."""
        from repro.expr.bound import FunctionExpr

        real = _Compiler._value_src

        def value_src(self, expr, slot, layout):
            if isinstance(expr, FunctionExpr):
                return None
            return real(self, expr, slot, layout)

        monkeypatch.setattr(_Compiler, "_value_src", value_src)
        found = self.violations(self.JOIN_SQL)
        assert {v.rule for v in found} == {"row-loop-closures"}
        # With an IN-subquery in the plan the same call is the fallback.
        monkeypatch.undo()
        assert self.violations(
            "select a from r where b in (select c from t where c < 3)"
        ) == []

    def test_pulse_without_the_batch_flush(self, monkeypatch):
        monkeypatch.setattr(
            _Compiler, "_emit_pulse", lambda self: self.line("yield PULSE")
        )
        assert {v.rule for v in self.violations()} == {"pulse-flush"}
