"""Query driver: runs a plan to completion on the virtual clock."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ExecutionError
from repro.executor.base import PULSE, ExecContext, build_operator
from repro.executor.batch import Batch
from repro.executor.work import check_tracker_alignment
from repro.planner.optimizer import PlannedQuery


@dataclass
class QueryResult:
    """Outcome of a completed query.

    ``row_count`` is the number of rows the query *produced*; ``rows``
    holds the retained subset (all of them unless ``keep_rows=False`` or
    ``max_rows`` capped retention).
    """

    rows: list[tuple]
    names: list[str]
    #: Virtual seconds from first pull to completion.
    elapsed: float
    started_at: float
    finished_at: float
    row_count: int


def execute(planned: PlannedQuery, ctx: ExecContext) -> Iterator[tuple]:
    """Stream a plan's output rows, interleaved with ``PULSE`` markers.

    The returned generator is a cooperative coroutine: between output
    rows it yields :data:`repro.executor.base.PULSE` at bounded-work
    boundaries (page reads, sort chunks, spill passes), so a scheduler
    can suspend and resume the query in work quanta.  Single-query
    drivers (:func:`run_query`) skip pulses; :mod:`repro.sched` uses them
    to interleave many in-flight queries on one virtual clock.

    Progress counters are frozen via ``finish_all`` only when the plan
    runs to completion — a cancelled (closed) generator leaves its
    unfinished segments unfinished, which is what the per-query progress
    log of a cancelled query should show.

    Uncorrelated IN-subqueries (hashed InitPlans) run first, on the same
    simulated resources but without progress accounting, and complete
    within the first resumption — their time is visible to the indicator
    only through the clock, matching PostgreSQL InitPlans, which the
    paper's prototype also does not model.

    A division by zero in an expression leaves here as an
    :class:`ExecutionError` chained from the ``ZeroDivisionError``.
    """
    close = None
    completed = False
    try:
        # The fused batch engine compiles the whole plan into one loop nest
        # (bit-identical charges; Batch items to the driver).  EXPLAIN
        # ANALYZE row counting must observe per-operator streams, so it
        # always runs the volcano row engine.
        use_fused = ctx.config.progress.engine != "row" and not ctx.count_rows
        if use_fused:
            from repro.executor.fused import FusedQuery

            # Binds the query to its shape's cached program; the alignment
            # guard runs once per program and tracker layout, not per query.
            fq = FusedQuery(planned.root, ctx)
            close = fq.close
        elif ctx.tracker is not None:
            check_tracker_alignment(planned.root, ctx.tracker)

        for expr, subplan in planned.subplans:
            sub_ctx = ExecContext(
                ctx.clock, ctx.disk, ctx.buffer_pool, ctx.config, tracker=None
            )
            sub_op = build_operator(subplan.root, sub_ctx)
            try:
                expr.set_result(
                    row[0] for row in sub_op.rows() if row is not PULSE
                )
            finally:
                sub_op.close()

        if use_fused:
            stream = fq.run()
        else:
            op = build_operator(planned.root, ctx)
            stream, close = op.rows(), op.close
        yield from stream
        completed = True
    except ZeroDivisionError as exc:
        raise ExecutionError("division by zero") from exc
    finally:
        if close is not None:
            close()
        if completed and ctx.tracker is not None:
            ctx.tracker.finish_all()


def run_query(
    planned: PlannedQuery,
    ctx: ExecContext,
    keep_rows: bool = True,
    max_rows: Optional[int] = None,
) -> QueryResult:
    """Run ``planned`` to completion, collecting results.

    ``keep_rows=False`` discards output tuples (large experiments care
    about timing, not materialized results).  ``max_rows`` caps retained
    rows without stopping execution.
    """
    started = ctx.clock.now
    rows: list[tuple] = []
    rows_append = rows.append
    rows_extend = rows.extend
    produced = 0
    for item in execute(planned, ctx):
        if item is PULSE:
            continue
        if type(item) is Batch:
            brows = item.rows()
            produced += len(brows)
            if keep_rows:
                if max_rows is None:
                    rows_extend(brows)
                elif len(rows) < max_rows:
                    rows_extend(brows[: max_rows - len(rows)])
            continue
        produced += 1
        if keep_rows and (max_rows is None or len(rows) < max_rows):
            rows_append(item)
    finished = ctx.clock.now
    return QueryResult(
        rows=rows,
        names=planned.output_names,
        elapsed=finished - started,
        started_at=started,
        finished_at=finished,
        row_count=produced,
    )
