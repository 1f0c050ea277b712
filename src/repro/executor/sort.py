"""External sort: blocking run generation, streaming merge.

Matches the paper's segment model (Figure 3): run formation ends a segment
(segments S3/S4 "sort the results into multiple sorted runs"), while the
merge is performed by the *consuming* segment, which reads the runs as its
inputs (segment S5 "computes a sort-merge join using RAB and RC").

The tracker wiring mirrors that: rows absorbed into runs count as this
sort's segment output; rows read back during the merge count as input of
the consumer segment (``pi_merge_input_ref``).
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

from repro.executor.base import PULSE, ExecContext, Operator, build_operator
from repro.executor.rowops import row_width_fn
from repro.planner.physical import SortNode
from repro.sim.load import CPU
from repro.storage.heap import HeapFile
from repro.storage.schema import Column, Schema

#: Charge sort-comparison CPU in slices of this many comparisons so the
#: clock's tickers can fire during large sorts.
_CPU_CHUNK = 50_000

#: Yield a scheduling PULSE every this many merged/streamed rows (the
#: merge phase reads spilled pages inside ``heapq.merge``, which cannot
#: forward pulses itself).
_MERGE_PULSE_ROWS = 256


class _KeyPart:
    """One sort-key component with NULLS LAST and optional descending order."""

    __slots__ = ("is_null", "value", "descending")

    def __init__(self, value, descending: bool):
        self.is_null = value is None
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_KeyPart") -> bool:
        if self.is_null != other.is_null:
            return other.is_null  # non-null sorts before null
        if self.is_null:
            return False
        if self.descending:
            return other.value < self.value
        return self.value < other.value

    def __eq__(self, other) -> bool:
        return self.is_null == other.is_null and self.value == other.value


def make_sort_key(node: SortNode):
    """Build a ``row -> sortable key`` function from the node's keys."""
    layout = {c.coordinate: i for i, c in enumerate(node.columns)}
    parts = [(layout[coord], asc) for coord, asc in node.keys]
    if len(parts) == 1 and parts[0][1]:
        slot = parts[0][0]
        return lambda row: _KeyPart(row[slot], False)
    return lambda row: tuple(
        _KeyPart(row[slot], not asc) for slot, asc in parts
    )


class SortRuns:
    """The spill runs of one external sort and its cold phases: sorting a
    buffer, spilling it, cascading merges, reading a run back.  Both engines
    run these (same charges, same PULSE cadence, same temp files); each
    keeps its own absorb and stream loops."""

    def __init__(self, node: SortNode, ctx: ExecContext):
        self.node = node
        self.ctx = ctx
        self.key = make_sort_key(node)
        self.runs: list[HeapFile] = []

    def sort_buffer(self, buffer: list[tuple]) -> Iterator[tuple]:
        n = len(buffer)
        if n <= 1:
            return
        comparisons = n * max(1.0, (n).bit_length() - 1)
        cost = self.ctx.config.cost.cpu_compare
        remaining = comparisons
        while remaining > 0:
            step = min(remaining, _CPU_CHUNK)
            self.ctx.clock.advance(step * cost, CPU)
            remaining -= step
            yield PULSE
        buffer.sort(key=self.key)

    def spill(self, buffer: list[tuple]) -> Iterator[tuple]:
        yield from self.sort_buffer(buffer)
        ctx = self.ctx
        schema = Schema(
            Column(f"s{i}_{c.name.replace('.', '_')}", c.type)
            for i, c in enumerate(self.node.columns)
        )
        run = HeapFile(
            f"sortrun_{id(self)}_{len(self.runs)}",
            schema,
            ctx.disk,
            ctx.config.page_size,
            temp=True,
        )
        run.extend(buffer)
        run.flush()
        self.runs.append(run)

    def collapse(self) -> Iterator[tuple]:
        """Cascade-merge runs until they fit the merge fanout.

        Each extra pass re-reads and re-writes every byte; those bytes are
        the paper's multi-stage costs, reported via ``extra_pass``.  One
        PULSE is yielded per merged group (a bounded unit of work).
        """
        ctx = self.ctx
        segment = getattr(self.node, "pi_sort_segment", None)
        fanout = max(2, ctx.config.work_mem_pages)
        while len(self.runs) > fanout:
            group = self.runs[:fanout]
            merged_rows = list(
                heapq.merge(*(run.iter_rows() for run in group), key=self.key)
            )
            nbytes = sum(run.total_bytes for run in group)  # noqa: REPRO112 - whole-number bytes, exact
            npages = sum(run.handle.num_pages for run in group)  # noqa: REPRO112 - page count
            cost = ctx.config.cost
            ctx.clock.advance(npages * (cost.seq_page_read + cost.page_write), "io")
            if ctx.tracker is not None and segment is not None:
                ctx.tracker.extra_pass(segment, 2.0 * nbytes)
            schema = group[0].schema
            merged = HeapFile(
                f"sortrun_{id(self)}_m{len(self.runs)}",
                schema,
                ctx.disk,
                ctx.config.page_size,
                temp=True,
            )
            previous = merged.charge_io
            merged.charge_io = False  # I/O charged in bulk above
            merged.extend(merged_rows)
            merged.flush()
            merged.charge_io = previous
            for run in group:
                run.drop()
            self.runs = self.runs[fanout:] + [merged]
            yield PULSE

    def read_run(self, run: HeapFile) -> Iterator[tuple]:
        """One spilled run's rows, page by page, as merge input."""
        ctx = self.ctx
        tracker = ctx.tracker
        ref = getattr(self.node, "pi_merge_input_ref", None)
        cost = ctx.config.cost
        for page_no in range(run.handle.num_pages):
            page = ctx.disk.read_page(run.handle, page_no, sequential=True)
            n = len(page.rows)
            if n:
                ctx.clock.advance(n * cost.cpu_tuple, CPU)
            if tracker is not None and ref is not None:
                tracker.input_rows(ref[0], ref[1], n, page.bytes_used)
            yield from page.rows

    def drop(self) -> None:
        for run in self.runs:
            run.drop()
        self.runs.clear()


class SortOp(Operator):
    def __init__(self, node: SortNode, ctx: ExecContext):
        super().__init__(node, ctx)
        self._child = build_operator(node.child, ctx)
        self._sort = SortRuns(node, ctx)
        self._width = row_width_fn(node.columns)

    # ------------------------------------------------------------------

    def rows(self) -> Iterator[tuple]:
        memory_run = yield from self._form_runs()
        if memory_run is not None:
            yield from self._stream_memory_run(memory_run)
        else:
            yield from self._merge_spilled_runs()

    def close(self) -> None:
        self._child.close()
        self._sort.drop()

    # ------------------------------------------------------------------
    # run formation (blocking; ends this sort's segment)

    def _form_runs(self) -> Iterator[tuple]:
        """Drain the child into sorted runs (a ``yield from``-able phase).

        Yields only PULSE markers while working; *returns* the single
        in-memory run when everything fit in work_mem, otherwise None
        (runs were spilled to ``self._sort.runs``).
        """
        ctx = self.ctx
        cost = ctx.config.cost
        tracker = ctx.tracker
        sort = self._sort
        segment = getattr(self.node, "pi_sort_segment", None)
        width_fn = self._width

        buffer: list[tuple] = []
        buffer_bytes = 0.0
        for row in self._child.rows():
            if row is PULSE:
                yield row
                continue
            ctx.clock.advance(cost.cpu_tuple, CPU)
            width = width_fn(row)
            if tracker is not None and segment is not None:
                tracker.output_rows(segment, 1, width)
            buffer.append(row)
            buffer_bytes += width
            if buffer_bytes > ctx.work_mem_bytes:
                yield from sort.spill(buffer)
                buffer = []
                buffer_bytes = 0.0

        memory_run: Optional[list[tuple]] = None
        if sort.runs:
            if buffer:
                yield from sort.spill(buffer)
            yield from sort.collapse()
        else:
            yield from sort.sort_buffer(buffer)
            memory_run = buffer
        if tracker is not None and segment is not None:
            tracker.segment_finished(segment)
        return memory_run

    # ------------------------------------------------------------------
    # merge phase (streams into the consuming segment)

    def _stream_memory_run(self, run: list[tuple]) -> Iterator[tuple]:
        ctx = self.ctx
        tracker = ctx.tracker
        ref = getattr(self.node, "pi_merge_input_ref", None)
        cpu_tuple = ctx.config.cost.cpu_tuple
        width_fn = self._width
        for streamed, row in enumerate(run, start=1):
            ctx.clock.advance(cpu_tuple, CPU)
            if tracker is not None and ref is not None:
                tracker.input_rows(ref[0], ref[1], 1, width_fn(row))
            yield row
            if streamed % _MERGE_PULSE_ROWS == 0:
                yield PULSE

    def _merge_spilled_runs(self) -> Iterator[tuple]:
        ctx = self.ctx
        sort = self._sort
        # read_run streams into heapq.merge, which cannot forward pulses;
        # the outer loop emits them at a fixed row cadence instead.
        compare = ctx.config.cost.cpu_compare * max(1, len(sort.runs)).bit_length()
        merged = 0
        for row in heapq.merge(*(sort.read_run(r) for r in sort.runs), key=sort.key):
            ctx.clock.advance(compare, CPU)
            yield row
            merged += 1
            if merged % _MERGE_PULSE_ROWS == 0:
                yield PULSE
