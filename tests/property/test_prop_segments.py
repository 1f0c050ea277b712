"""Property-based tests: segmentation invariants over generated queries.

Random select-project-join/aggregate/sort queries are planned and
segmented; the structural invariants the refiner depends on must hold for
every shape the planner can produce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestSegmentationInvariants:
    @settings(max_examples=40, deadline=None)
    @given(query_shape)
    def test_structural_invariants(self, shape):
        db = make_db(shape["work_mem"])
        if shape["force_merge"]:
            db.config = db.config.with_planner(enable_hashjoin=False)
        plan = db.prepare(build_sql(shape))
        specs = build_segments(plan.root)

        # Exactly one final segment, and it is the last one.
        finals = [s for s in specs if s.final]
        assert len(finals) == 1
        assert finals[0].id == specs[-1].id

        # Ids are dense and topologically ordered: every child input
        # references a lower id.
        assert [s.id for s in specs] == list(range(len(specs)))
        for spec in specs:
            for inp in spec.inputs:
                if inp.kind == "child":
                    assert inp.child_segment is not None
                    assert inp.child_segment < spec.id
                else:
                    assert inp.child_segment is None

        # Every segment has at least one input and 1 or 2 dominant inputs.
        for spec in specs:
            assert spec.inputs
            dominants = sum(1 for i in spec.inputs if i.dominant)
            assert dominants in (1, 2)

        # card_factor reproduces the optimizer's output estimate.
        for spec in specs:
            product = 1.0
            for i in spec.inputs:
                product *= max(i.est_rows, 1e-9)
            assert abs(spec.card_factor * product - spec.est_output_rows) <= max(
                1e-6, 1e-6 * spec.est_output_rows
            )

        # Initial costs are finite and non-negative.
        for spec in specs:
            assert spec.initial_cost_bytes() >= 0.0

    @settings(max_examples=25, deadline=None)
    @given(query_shape)
    def test_monitored_execution_consistent(self, shape):
        db = make_db(shape["work_mem"])
        if shape["force_merge"]:
            db.config = db.config.with_planner(enable_hashjoin=False)
        sql = build_sql(shape)
        expected = db.connect().execute(sql, keep_rows=True)
        db.restart()
        monitored = db.connect().submit(sql, keep_rows=True).monitored()
        assert sorted(map(repr, monitored.result.rows)) == sorted(
            map(repr, expected.rows)
        )
        final = monitored.log.final()
        assert final.finished
        # Work done never exceeds the final cost estimate.
        assert final.done_pages <= final.est_cost_pages + 1e-6
