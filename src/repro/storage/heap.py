"""Heap files: the on-disk representation of tables and spill streams."""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.storage.disk import FileHandle, SimulatedDisk
from repro.storage.page import Page
from repro.storage.schema import Schema


class HeapFile:
    """An unordered collection of rows in pages.

    Used both for base tables (bulk-loaded cost-free before an experiment
    starts) and for temp spill files (written with I/O charged).  Reads are
    performed by the executor through the buffer pool (base tables) or the
    disk directly (temp files); this class only owns layout and writing.
    One page writer fills it: rows go on the open :attr:`page` until one
    does not fit, then :meth:`roll` writes the page and opens a fresh one
    (which takes a row of any width).  A caller may fill :attr:`page` in
    place if it rolls where :meth:`append` would.  ``num_tuples`` and
    ``total_bytes`` settle when a page closes.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        disk: SimulatedDisk,
        page_size: int,
        temp: bool = False,
    ):
        self.name = name
        self.schema = schema
        #: ``schema.row_width``'s two parts, read by :meth:`append`.
        self._fixed_width, self._varying = schema.width_parts()
        self._disk = disk
        self._page_size = page_size
        self.handle: FileHandle = disk.allocate(name, temp=temp)
        #: The open page, written by :meth:`roll`.
        self.page = Page(page_size)
        self.num_tuples = 0
        self.total_bytes = 0
        #: Whether page writes charge I/O time (False while bulk loading).
        self.charge_io = temp

    # ------------------------------------------------------------------
    # writing

    def roll(self) -> Page:
        """Close the open page: write it when it holds rows, settle the
        counters and open a fresh page.  Returns the open page."""
        page = self.page
        if page.rows:
            self._disk.append_page(self.handle, page, charge_io=self.charge_io)
            self.num_tuples += len(page.rows)
            self.total_bytes += page.bytes_used
            page = self.page = Page(self._page_size)
        return page

    def append(self, row: Sequence[Any], width: Optional[int] = None) -> None:
        """Append one row (of ``schema.row_width`` ``width``, when the caller
        has it), rolling the open page when the row does not fit."""
        if width is None:
            width = self._fixed_width
            for i in self._varying:
                value = row[i]
                width += 1 if value is None else 1 + len(value)
        page = self.page
        if page.rows and page.bytes_used + width > page.capacity:
            page = self.roll()
        page.rows.append(tuple(row))
        page.bytes_used += width

    def write(self, rows: Sequence[tuple], widths: Sequence[int]) -> None:
        """:meth:`append` each of ``rows`` (tuples of integer ``widths``), a
        page at a time: one bisection of the running widths per page."""
        ends = list(accumulate(widths, initial=0))  # ends[i]: bytes of rows[:i]
        page = self.page
        i = 0
        while i < len(rows):
            room = page.capacity - page.bytes_used
            j = bisect_right(ends, ends[i] + room, i + 1) - 1
            if j == i:  # rows[i] does not fit
                if page.rows:
                    page = self.roll()
                    continue
                j = i + 1
            page.rows.extend(rows[i:j])
            page.bytes_used += ends[j] - ends[i]
            i = j

    #: Write the open page (call after the last row).
    flush = roll

    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> None:
        """Load rows without charging I/O (experiment setup path)."""
        previous = self.charge_io
        self.charge_io = False
        try:
            for row in rows:
                self.append(row)
            self.flush()
        finally:
            self.charge_io = previous

    # ------------------------------------------------------------------
    # geometry

    @property
    def num_pages(self) -> int:
        return self.handle.num_pages

    def avg_tuple_width(self) -> float:
        """Mean stored row width in bytes (header included)."""
        return self.total_bytes / self.num_tuples if self.num_tuples else 0.0

    # ------------------------------------------------------------------
    # raw iteration (cost-free; the executor charges through buffer/disk)

    def iter_pages(self) -> Iterator[Page]:
        """Yield pages without charging any I/O (catalog/ANALYZE use)."""
        yield from self.handle.pages

    def iter_rows(self) -> Iterator[tuple]:
        """Yield rows without charging any I/O."""
        for page in self.handle.pages:
            yield from page.rows

    def drop(self) -> None:
        """Release the underlying file (temp cleanup)."""
        self._disk.deallocate(self.handle)

    def __repr__(self) -> str:
        return (
            f"HeapFile({self.name!r}, tuples={self.num_tuples}, "
            f"pages={self.num_pages}, bytes={self.total_bytes})"
        )
