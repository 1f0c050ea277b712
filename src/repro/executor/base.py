"""Executor plumbing: execution context and the operator factory."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.executor.work import WorkTracker
from repro.planner.physical import (
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    LimitNode,
    MergeJoinNode,
    NestLoopNode,
    PhysicalNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
)
from repro.sim.clock import VirtualClock
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


class _WorkPulse:
    """The cooperative-scheduling marker operators interleave with rows.

    Operators yield :data:`PULSE` at bounded-work boundaries (a heap page
    scanned, a sort chunk compared, a spill partition page re-read) in
    addition to their output rows.  A pulse carries no data and charges no
    virtual time; it only returns control to whoever drives the iteration,
    which is what lets :mod:`repro.sched` slice many in-flight queries on
    one clock.  Single-query drivers simply skip pulses.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PULSE"


#: The singleton work pulse.  Compare with ``is``: ``item is PULSE``.
PULSE = _WorkPulse()


def pull(source: Iterator):
    """Advance ``source`` to its next *row*, forwarding pulses upstream.

    A ``yield from``-able helper for operators that drive a child with
    explicit ``next()`` calls (merge join)::

        row = yield from pull(child_rows)

    Returns the next non-pulse item, or ``None`` when the child is
    exhausted (rows are tuples, never ``None``).
    """
    for item in source:
        if item is PULSE:
            yield PULSE
        else:
            return item
    return None


class ExecContext:
    """Everything an operator needs at run time."""

    def __init__(
        self,
        clock: VirtualClock,
        disk: SimulatedDisk,
        buffer_pool: BufferPool,
        config: SystemConfig,
        tracker: Optional[WorkTracker] = None,
        count_rows: bool = False,
    ):
        self.clock = clock
        self.disk = disk
        self.buffer_pool = buffer_pool
        self.config = config
        #: None disables all progress accounting (the unmonitored fast path).
        self.tracker = tracker
        self.work_mem_bytes = config.work_mem_pages * config.page_size
        #: EXPLAIN ANALYZE support: when True, every operator's emitted-row
        #: count is recorded in ``actual_rows`` keyed by plan-node identity.
        self.count_rows = count_rows
        self.actual_rows: dict[int, int] = {}


class Operator:
    """Base class: an operator is an iterable of output rows.

    ``rows()`` returns a generator; iterating it *is* execution.  The
    stream interleaves output rows with :data:`PULSE` markers (yielded at
    bounded-work boundaries and forwarded transparently by parents) so a
    driver can suspend execution mid-plan.  Operators own their children
    and any temp files they spill; ``close()`` releases resources (the
    driver calls it once iteration ends or is abandoned).
    """

    def __init__(self, node: PhysicalNode, ctx: ExecContext):
        self.node = node
        self.ctx = ctx

    def rows(self) -> Iterator[tuple]:
        raise NotImplementedError

    def close(self) -> None:
        """Release temp resources; default is a no-op."""


class _CountingOperator(Operator):
    """EXPLAIN ANALYZE wrapper: counts rows an operator emits."""

    def __init__(self, inner: Operator, ctx: ExecContext):
        super().__init__(inner.node, ctx)
        self._inner = inner
        ctx.actual_rows.setdefault(id(inner.node), 0)

    def rows(self) -> Iterator[tuple]:
        counters = self.ctx.actual_rows
        key = id(self._inner.node)
        for row in self._inner.rows():
            if row is PULSE:
                yield row
                continue
            counters[key] += 1
            yield row

    def close(self) -> None:
        self._inner.close()


def build_operator(node: PhysicalNode, ctx: ExecContext) -> Operator:
    """Instantiate the operator tree for a physical plan subtree."""
    # Imports here avoid a circular dependency between operator modules
    # and this factory.
    from repro.executor.aggregate import FilterOp, HashAggregateOp
    from repro.executor.filter_project import DistinctOp, LimitOp, ProjectOp
    from repro.executor.hash_join import HashJoinOp
    from repro.executor.merge_join import MergeJoinOp
    from repro.executor.nl_join import NestLoopOp
    from repro.executor.scans import IndexScanOp, SeqScanOp
    from repro.executor.sort import SortOp

    op = None
    if isinstance(node, HashAggregateNode):
        op = HashAggregateOp(node, ctx)
    elif isinstance(node, DistinctNode):
        op = DistinctOp(node, ctx)
    elif isinstance(node, FilterNode):
        op = FilterOp(node, ctx)
    elif isinstance(node, SeqScanNode):
        op = SeqScanOp(node, ctx)
    elif isinstance(node, IndexScanNode):
        op = IndexScanOp(node, ctx)
    elif isinstance(node, HashJoinNode):
        op = HashJoinOp(node, ctx)
    elif isinstance(node, NestLoopNode):
        op = NestLoopOp(node, ctx)
    elif isinstance(node, MergeJoinNode):
        op = MergeJoinOp(node, ctx)
    elif isinstance(node, SortNode):
        op = SortOp(node, ctx)
    elif isinstance(node, ProjectNode):
        op = ProjectOp(node, ctx)
    if op is None and isinstance(node, LimitNode):
        op = LimitOp(node, ctx)
    if op is None:
        raise ExecutionError(f"no operator for plan node {type(node).__name__}")
    return _CountingOperator(op, ctx) if ctx.count_rows else op
