"""External sort: blocking run generation, streaming merge.

Matches the paper's segment model (Figure 3): run formation ends a segment
(segments S3/S4 "sort the results into multiple sorted runs"), while the
merge is performed by the *consuming* segment, which reads the runs as its
inputs (segment S5 "computes a sort-merge join using RAB and RC").

The tracker wiring mirrors that: rows absorbed into runs count as this
sort's segment output; rows read back during the merge count as input of
the consumer segment (``pi_merge_input_ref``).

Sort keys are flat tuples of builtins (:func:`make_sort_key`) and runs are
written a page at a time, so sorting, merging and spilling run in C; the
contract is in ``docs/architecture.md`` ("Sorting and spilling").
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Iterator, Optional

from repro.executor.base import PULSE, ExecContext, Operator, build_operator
from repro.executor.hash_join import _spill_schema
from repro.executor.rowops import row_width_fn
from repro.planner.physical import SortNode
from repro.sim.load import CPU
from repro.storage.heap import HeapFile
from repro.storage.types import BooleanType, DateType, FloatType, IntegerType

#: Charge sort-comparison CPU in slices of this many comparisons so the
#: clock's tickers can fire during large sorts.
_CPU_CHUNK = 50_000

#: Yield a scheduling PULSE every this many merged/streamed rows (the
#: merge phase reads spilled pages inside ``heapq.merge``, which cannot
#: forward pulses itself).
_MERGE_PULSE_ROWS = 256


class _Descending(str):
    """A DESC string key component: ``<`` reversed, ``==`` a string's."""

    __slots__ = ()

    def __lt__(self, other: str) -> bool:
        return str.__lt__(other, self)


#: Number types (a date is a day number): ``-v`` sorts them DESC, exactly.
_NEGATABLE = (IntegerType, FloatType, DateType, BooleanType)


def make_sort_key(node: SortNode):
    """Build the node's ``row -> key`` function: a flat tuple compared in C,
    two entries per component: ``v is None`` (NULLS LAST), then ``v``
    ascending, ``-v`` descending over numbers, else ``_Descending(v)``.  An
    ascending float is ``-(-v)``, a fresh object: a NaN two rows share then
    compares unequal to itself, as it does by value."""
    layout = {c.coordinate: i for i, c in enumerate(node.columns)}
    entries = []
    for coord, asc in node.keys:
        slot = layout[coord]
        kind = node.columns[slot].type
        v = f"r[{slot}]"
        if asc and not isinstance(kind, FloatType):
            value = v
        else:
            if asc:
                other = f"-(-{v})"
            else:
                other = f"-{v}" if isinstance(kind, _NEGATABLE) else f"_Descending({v})"
            value = f"None if {v} is None else {other}"
        entries.append(f"{v} is None, {value}")
    source = f"lambda r: ({', '.join(entries)},)"
    return eval(source, {"_Descending": _Descending})  # noqa: S307 - built from slot numbers only


class SortRuns:
    """The spill runs of one external sort and its cold phases: sorting a
    buffer, spilling it, cascading merges, reading a run back.  Both engines
    run these (same charges, same PULSE cadence, same temp files); each
    keeps its own absorb loop, which hands :meth:`spill` the row widths."""

    def __init__(self, node: SortNode, ctx: ExecContext):
        self.node = node
        self.ctx = ctx
        self.key = make_sort_key(node)
        self.schema = _spill_schema(node.columns)
        self.runs: list[HeapFile] = []
        #: Each run's row widths, for the page writer when it is merged.
        self.run_widths: list[list[int]] = []

    def _charge_sort(self, n: int) -> Iterator[tuple]:
        """Charge the comparisons of sorting ``n`` rows, a PULSE per slice."""
        if n <= 1:
            return
        remaining = n * max(1.0, (n).bit_length() - 1)  # comparisons
        cost = self.ctx.config.cost.cpu_compare
        while remaining > 0:
            step = min(remaining, _CPU_CHUNK)
            self.ctx.clock.advance(step * cost, CPU)
            remaining -= step
            yield PULSE

    def sort_buffer(self, buffer: list[tuple]) -> Iterator[tuple]:
        """Sort the in-memory run in place."""
        yield from self._charge_sort(len(buffer))
        buffer.sort(key=self.key)

    def _sorted(self, rows: list, widths: list) -> tuple[list, list]:
        """``rows`` and their ``widths`` in key order.  The sort is stable,
        so this is the permutation ``rows.sort(key=self.key)`` makes."""
        keys = list(map(self.key, rows))
        order = sorted(range(len(rows)), key=keys.__getitem__)
        return list(map(rows.__getitem__, order)), list(map(widths.__getitem__, order))

    def _write_run(self, label, rows: list, widths: list, charge_io: bool) -> HeapFile:
        ctx = self.ctx
        run = HeapFile(f"sortrun_{id(self)}_{label}", self.schema, ctx.disk,
                       ctx.config.page_size, temp=True)
        run.charge_io = charge_io
        run.write(rows, widths)
        run.flush()
        return run

    def spill(self, buffer: list[tuple], widths: list[int]) -> Iterator[tuple]:
        """Sort ``buffer`` (rows of the given stored ``widths``) into a run,
        emptying both lists for the next one."""
        yield from self._charge_sort(len(buffer))
        rows, run_widths = self._sorted(buffer, widths)
        buffer.clear()
        widths.clear()
        self.runs.append(self._write_run(len(self.runs), rows, run_widths, True))
        self.run_widths.append(run_widths)

    def collapse(self) -> Iterator[tuple]:
        """Cascade-merge runs until they fit the merge fanout.

        A group of runs merges as one stable sort of its rows in run order
        (ties fall by run index, ``heapq.merge``'s order).  Each extra pass
        re-reads and re-writes every byte, charged in bulk; those bytes are
        the paper's multi-stage costs, reported via ``extra_pass``.  One
        PULSE is yielded per merged group (a bounded unit of work).
        """
        ctx = self.ctx
        segment = getattr(self.node, "pi_sort_segment", None)
        fanout = max(2, ctx.config.work_mem_pages)
        while len(self.runs) > fanout:
            group = self.runs[:fanout]
            rows, widths = self._sorted(
                list(chain.from_iterable(run.iter_rows() for run in group)),
                list(chain.from_iterable(self.run_widths[:fanout])),
            )
            nbytes = sum(run.total_bytes for run in group)  # noqa: REPRO112 - whole-number bytes, exact
            npages = sum(run.handle.num_pages for run in group)  # noqa: REPRO112 - page count
            cost = ctx.config.cost
            ctx.clock.advance(npages * (cost.seq_page_read + cost.page_write), "io")
            if ctx.tracker is not None and segment is not None:
                ctx.tracker.extra_pass(segment, 2.0 * nbytes)
            # charge_io False: the group's I/O is charged in bulk above
            merged = self._write_run(f"m{len(self.runs)}", rows, widths, False)
            for run in group:
                run.drop()
            self.runs = self.runs[fanout:] + [merged]
            self.run_widths = self.run_widths[fanout:] + [widths]
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
        self.run_widths.clear()


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
        widths: list[int] = []
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
            widths.append(int(width))
            buffer_bytes += width
            if buffer_bytes > ctx.work_mem_bytes:
                yield from sort.spill(buffer, widths)  # empties both
                buffer_bytes = 0.0

        memory_run: Optional[list[tuple]] = None
        if sort.runs:
            if buffer:
                yield from sort.spill(buffer, widths)
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
