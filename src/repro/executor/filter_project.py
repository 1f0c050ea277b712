"""Projection and LIMIT operators (top of every plan)."""

from __future__ import annotations

import math
from typing import Iterator

from repro.executor.base import PULSE, ExecContext, Operator, build_operator
from repro.expr.compiler import compile_expr
from repro.planner.physical import LimitNode, ProjectNode
from repro.sim.load import CPU
from repro.storage.schema import TUPLE_HEADER_BYTES
from repro.storage.types import StringType


class ProjectOp(Operator):
    """Computes the SELECT-list expressions.

    Always the top of the pipeline that forms the plan's *final* segment:
    it reports output cardinality/width to the tracker for the indicator's
    statistics, but those bytes are not counted as work (the paper excludes
    the final result returned to the user).
    """

    def __init__(self, node: ProjectNode, ctx: ExecContext):
        super().__init__(node, ctx)
        self._child = build_operator(node.child, ctx)
        layout = {c.coordinate: i for i, c in enumerate(node.child.columns)}
        self._fns = [compile_expr(e, layout) for e in node.exprs]
        self._string_slots = [
            i for i, e in enumerate(node.exprs) if isinstance(e.type, StringType)
        ]
        self._fixed_width = float(TUPLE_HEADER_BYTES) + math.fsum(
            e.type.width(None)
            for e in node.exprs
            if not isinstance(e.type, StringType)
        )

    def _width(self, row: tuple) -> float:
        w = self._fixed_width
        for i in self._string_slots:
            v = row[i]
            w += 1.0 if v is None else 1.0 + len(v)
        return w

    def rows(self) -> Iterator[tuple]:
        ctx = self.ctx
        tracker = ctx.tracker
        segment = getattr(self.node, "pi_output_segment", None)
        # Plain column references are near-free slot copies; only computed
        # expressions pay the per-operator CPU cost.
        from repro.expr.bound import ColumnExpr

        computed = sum(
            1 for e in self.node.exprs if not isinstance(e, ColumnExpr)
        )
        per_row = (
            ctx.config.cost.cpu_tuple + computed * ctx.config.cost.cpu_operator
        )
        fns = self._fns
        for row in self._child.rows():
            if row is PULSE:
                yield row
                continue
            ctx.clock.advance(per_row, CPU)
            out = tuple(fn(row) for fn in fns)
            if tracker is not None and segment is not None:
                tracker.output_rows(segment, 1, self._width(out))
            yield out

    def close(self) -> None:
        self._child.close()


class DistinctOp(Operator):
    """Hash-set dedup; emits first occurrences as they arrive."""

    def __init__(self, node, ctx: ExecContext):
        super().__init__(node, ctx)
        self._child = build_operator(node.child, ctx)

    def rows(self) -> Iterator[tuple]:
        ctx = self.ctx
        per_row = ctx.config.cost.cpu_hash
        seen: set = set()
        for row in self._child.rows():
            if row is PULSE:
                yield row
                continue
            ctx.clock.advance(per_row, CPU)
            if row in seen:
                continue
            seen.add(row)
            yield row

    def close(self) -> None:
        self._child.close()


class LimitOp(Operator):
    """Stops pulling from its child after ``limit`` rows."""

    def __init__(self, node: LimitNode, ctx: ExecContext):
        super().__init__(node, ctx)
        self._child = build_operator(node.child, ctx)

    def rows(self) -> Iterator[tuple]:
        remaining = self.node.limit
        if remaining <= 0:
            return
        for row in self._child.rows():
            if row is PULSE:
                yield row
                continue
            yield row
            remaining -= 1
            if remaining <= 0:
                break

    def close(self) -> None:
        self._child.close()
