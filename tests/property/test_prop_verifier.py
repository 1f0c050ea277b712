"""Property-based tests: the invariant verifier accepts every plan the
optimizer can produce.

The verifier encodes the structural contract between the segment builder
and the refinement estimator; if any reachable plan shape violated it,
either the builder or the verifier would be wrong.  The generator sweeps
join counts, blocking operators, work_mem (forcing multi-batch joins and
external sorts), merge-join forcing and limits — the same shape space the
segmentation property tests cover.  Each plan is also compiled the two ways
production runs it, and the generated program must pass its checks too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cli import check_compiled
from repro.analysis.invariants import verify_segments
from repro.config import SystemConfig
from repro.core.segments import build_segments
from repro.database import Database
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string


def make_db(work_mem_pages):
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
    db.create_table(
        "u",
        Schema([Column("c", INTEGER), Column("d", INTEGER)]),
        [(i % 300, i * 2) for i in range(300)],
    )
    db.analyze()
    return db


query_shape = st.fixed_dictionaries(
    {
        "joins": st.integers(min_value=0, max_value=2),
        "filter": st.sampled_from(
            [None, "r.b = 3", "r.a < 100", "absolute(r.b) > 0"]
        ),
        "group": st.booleans(),
        "order": st.booleans(),
        "limit": st.sampled_from([None, 0, 5]),
        "work_mem": st.sampled_from([1, 4, 256]),
        "force_merge": st.booleans(),
    }
)


def build_sql(shape):
    tables = ["r"]
    predicates = []
    if shape["joins"] >= 1:
        tables.append("t")
        predicates.append("r.a = t.a")
    if shape["joins"] >= 2:
        tables.append("u")
        predicates.append("t.c = u.c")
    if shape["filter"]:
        predicates.append(shape["filter"])
    if shape["group"]:
        select = "r.b, count(*)"
        suffix = " group by r.b"
        order = " order by r.b" if shape["order"] else ""
    else:
        select = "r.a, r.b"
        suffix = ""
        order = " order by r.a" if shape["order"] else ""
    sql = f"select {select} from {', '.join(tables)}"
    if predicates:
        sql += " where " + " and ".join(predicates)
    sql += suffix + order
    if shape["limit"] is not None:
        sql += f" limit {shape['limit']}"
    return sql


class TestVerifierAcceptsOptimizerPlans:
    @settings(max_examples=60, deadline=None)
    @given(query_shape)
    def test_every_optimizer_plan_verifies(self, shape):
        db = make_db(shape["work_mem"])
        if shape["force_merge"]:
            db.config = db.config.with_planner(enable_hashjoin=False)
        plan = db.prepare(build_sql(shape))
        specs = build_segments(plan.root)
        violations = verify_segments(plan.root, specs)
        violations += check_compiled(plan.root, specs, db)
        assert violations == [], "\n".join(v.format() for v in violations)

    @settings(max_examples=20, deadline=None)
    @given(query_shape)
    def test_verification_is_idempotent(self, shape):
        """Re-segmenting and re-verifying the same plan stays clean —
        build_segments rewrites annotations deterministically."""
        db = make_db(shape["work_mem"])
        plan = db.prepare(build_sql(shape))
        first = build_segments(plan.root)
        assert verify_segments(plan.root, first) == []
        second = build_segments(plan.root)
        assert verify_segments(plan.root, second) == []
        assert [s.label for s in first] == [s.label for s in second]
