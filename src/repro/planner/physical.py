"""Annotated physical plan nodes.

Every node carries the optimizer's estimates (`est_rows`, `est_width`,
and derived `est_bytes`) — the annotated-query-plan technique the paper
relies on so the progress indicator can start from the optimizer's numbers
and refine them in place.

Intermediate rows are addressed by *coordinates* ``(table_index,
column_index)`` into the query's FROM list; each node exposes its output
``columns`` in slot order, and :meth:`PhysicalNode.layout` maps coordinates
to slots for expression compilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.catalog.catalog import Table
from repro.expr.bound import BoundExpr
from repro.storage.index import BTreeIndex
from repro.storage.schema import TUPLE_HEADER_BYTES
from repro.storage.types import DataType


@dataclass(frozen=True)
class PlanColumn:
    """One output column of a physical node."""

    coordinate: tuple[int, int]
    name: str
    type: DataType
    #: Average stored width of the column's data in bytes (no header).
    avg_width: float


def row_width(columns: Sequence[PlanColumn]) -> float:
    """Estimated stored tuple width for a row of ``columns``."""
    return TUPLE_HEADER_BYTES + math.fsum(c.avg_width for c in columns)


class PhysicalNode:
    """Base class of the physical plan tree."""

    def __init__(self, columns: Sequence[PlanColumn], est_rows: float):
        self.columns = list(columns)
        self.est_rows = max(0.0, est_rows)
        self.est_width = row_width(self.columns)
        #: Filled in by the segment builder (repro.core.segments).
        self.segment_id: Optional[int] = None

    @property
    def est_bytes(self) -> float:
        return self.est_rows * self.est_width

    @property
    def children(self) -> list["PhysicalNode"]:
        return []

    def layout(self) -> dict[tuple[int, int], int]:
        """Coordinate -> slot mapping for this node's output rows."""
        return {col.coordinate: i for i, col in enumerate(self.columns)}

    def label(self) -> str:
        """Short operator label for EXPLAIN output."""
        return type(self).__name__


class SeqScanNode(PhysicalNode):
    """Full table scan with pushed-down filters and column pruning."""

    def __init__(
        self,
        table: Table,
        table_index: int,
        filters: list[BoundExpr],
        columns: Sequence[PlanColumn],
        est_rows: float,
        est_base_rows: float,
    ):
        super().__init__(columns, est_rows)
        self.table = table
        self.table_index = table_index
        self.filters = filters
        #: Optimizer's estimate of the number of *base* tuples scanned
        #: (the Ne of Section 4.3, before filters).
        self.est_base_rows = est_base_rows

    def label(self) -> str:
        return f"SeqScan({self.table.name})"


class IndexScanNode(PhysicalNode):
    """Index range/equality scan plus heap fetches and residual filters."""

    def __init__(
        self,
        table: Table,
        table_index: int,
        index: BTreeIndex,
        low,
        high,
        low_inclusive: bool,
        high_inclusive: bool,
        filters: list[BoundExpr],
        columns: Sequence[PlanColumn],
        est_rows: float,
        est_base_rows: float,
    ):
        super().__init__(columns, est_rows)
        self.table = table
        self.table_index = table_index
        self.index = index
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.filters = filters
        #: Estimated number of index entries matched (scan input cardinality).
        self.est_base_rows = est_base_rows

    def label(self) -> str:
        return f"IndexScan({self.table.name}.{self.index.key_column})"


class HashJoinNode(PhysicalNode):
    """Hybrid hash join.

    ``num_batches == 1`` means the build side is expected to fit in
    ``work_mem`` (in-memory hash table, fully pipelined probe).  With more
    batches the join runs Grace-style: both inputs are hash-partitioned to
    temp files first, then batches are joined one by one — matching the
    multi-segment structure of the paper's Figure 3 (segments S1/S2 produce
    partitions, segment S3 consumes them).
    """

    def __init__(
        self,
        build: PhysicalNode,
        probe: PhysicalNode,
        build_keys: list[tuple[int, int]],
        probe_keys: list[tuple[int, int]],
        extra_filters: list[BoundExpr],
        num_batches: int,
        columns: Sequence[PlanColumn],
        est_rows: float,
    ):
        super().__init__(columns, est_rows)
        self.build = build
        self.probe = probe
        self.build_keys = build_keys
        self.probe_keys = probe_keys
        self.extra_filters = extra_filters
        self.num_batches = max(1, num_batches)

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.build, self.probe]

    def label(self) -> str:
        mode = "in-memory" if self.num_batches == 1 else f"{self.num_batches} batches"
        return f"HashJoin({mode})"


class NestLoopNode(PhysicalNode):
    """Nested loops join with a materialized inner (paper's Q5 plan)."""

    def __init__(
        self,
        outer: PhysicalNode,
        inner: PhysicalNode,
        predicates: list[BoundExpr],
        columns: Sequence[PlanColumn],
        est_rows: float,
    ):
        super().__init__(columns, est_rows)
        self.outer = outer
        self.inner = inner
        self.predicates = predicates

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.outer, self.inner]

    def label(self) -> str:
        return "NestLoop"


class SortNode(PhysicalNode):
    """External sort: run generation is blocking; the merge streams.

    Used beneath merge joins and for ORDER BY.  ``keys`` are
    (coordinate, ascending) pairs.
    """

    def __init__(
        self,
        child: PhysicalNode,
        keys: list[tuple[tuple[int, int], bool]],
        columns: Sequence[PlanColumn],
        est_rows: float,
    ):
        super().__init__(columns, est_rows)
        self.child = child
        self.keys = keys

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def label(self) -> str:
        cols = ", ".join(f"{c}{'' if asc else ' desc'}" for c, asc in self.keys)
        return f"Sort({cols})"


class MergeJoinNode(PhysicalNode):
    """Sort-merge join over two sorted children (normally SortNodes).

    The paper's prototype left this join out (Section 5); we implement the
    full technique it describes, including the two dominant inputs with
    ``p = max(qA, qB)`` (Section 4.5).
    """

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        left_key: tuple[int, int],
        right_key: tuple[int, int],
        extra_filters: list[BoundExpr],
        columns: Sequence[PlanColumn],
        est_rows: float,
    ):
        super().__init__(columns, est_rows)
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.extra_filters = extra_filters

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return "MergeJoin"


class HashAggregateNode(PhysicalNode):
    """Blocking hash aggregation (GROUP BY).

    Output columns are the group keys (keeping their base coordinates)
    followed by one synthetic column per aggregate with coordinate
    ``(-1, i)`` — the planner rewrites aggregate references in upper
    expressions to those coordinates.
    """

    def __init__(
        self,
        child: PhysicalNode,
        group_keys: list[tuple[int, int]],
        aggregates: list,  # list[AggregateExpr]
        columns: Sequence[PlanColumn],
        est_rows: float,
    ):
        super().__init__(columns, est_rows)
        self.child = child
        self.group_keys = group_keys
        self.aggregates = list(aggregates)

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def label(self) -> str:
        aggs = ", ".join(a.display() for a in self.aggregates)
        if self.group_keys:
            keys = ", ".join(str(k) for k in self.group_keys)
            return f"HashAggregate(by {keys}: {aggs})"
        return f"Aggregate({aggs})"


class FilterNode(PhysicalNode):
    """A standalone filter (used for HAVING above an aggregate)."""

    def __init__(
        self,
        child: PhysicalNode,
        predicates: list[BoundExpr],
        est_rows: float,
    ):
        super().__init__(list(child.columns), est_rows)
        self.child = child
        self.predicates = predicates
        self.est_width = child.est_width

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def label(self) -> str:
        return "Filter(" + " and ".join(p.display() for p in self.predicates) + ")"


class ProjectNode(PhysicalNode):
    """Final projection computing the SELECT-list expressions."""

    def __init__(
        self,
        child: PhysicalNode,
        exprs: list[BoundExpr],
        names: list[str],
        est_rows: float,
        est_output_width: float,
    ):
        # Output columns of a projection have no base coordinates; consumers
        # address them positionally (the project node is always at the top,
        # optionally under a LimitNode).
        super().__init__([], est_rows)
        self.child = child
        self.exprs = exprs
        self.names = names
        self.est_width = est_output_width

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def label(self) -> str:
        return f"Project({', '.join(self.names)})"


class DistinctNode(PhysicalNode):
    """Streaming duplicate elimination over final output rows.

    Emits each row's first occurrence immediately (hash-set dedup), so it
    pipelines — no segment boundary — and preserves any sort order below.
    """

    def __init__(self, child: PhysicalNode, est_rows: float):
        super().__init__(list(child.columns), est_rows)
        self.child = child
        self.est_width = child.est_width

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def label(self) -> str:
        return "Distinct"


class LimitNode(PhysicalNode):
    """Stop after ``limit`` rows."""

    def __init__(self, child: PhysicalNode, limit: int):
        super().__init__(list(child.columns), min(child.est_rows, limit))
        self.child = child
        self.limit = limit
        self.est_width = child.est_width

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def label(self) -> str:
        return f"Limit({self.limit})"
