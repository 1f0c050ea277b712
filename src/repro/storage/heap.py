"""Heap files: the on-disk representation of tables and spill streams."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.storage.disk import FileHandle, SimulatedDisk
from repro.storage.page import Page
from repro.storage.schema import Schema


class HeapFile:
    """An unordered collection of rows in pages.

    Used both for base tables (bulk-loaded cost-free before an experiment
    starts) and for temp spill files (written with I/O charged).  Reads are
    performed by the executor through the buffer pool (base tables) or the
    disk directly (temp files); this class only owns layout and append.
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
        self._open_page: Page | None = None
        self.num_tuples = 0
        self.total_bytes = 0
        #: Whether appends charge I/O time (False while bulk loading).
        self.charge_io = temp

    # ------------------------------------------------------------------
    # writing

    def append(self, row: Sequence[Any], width: Optional[int] = None) -> None:
        """Append one row (of ``schema.row_width`` ``width``, when the caller
        has it), flushing the open page when it fills.  Per-row cost of every
        spill and bulk load, so one frame: ``Schema.row_width``, ``Page.fits``
        and ``Page.append`` inlined, the fit test evaluated once."""
        if width is None:
            width = self._fixed_width
            for i in self._varying:
                value = row[i]
                width += 1 if value is None else 1 + len(value)
        page = self._open_page
        # (a page never stays empty: a fresh one takes a row of any width)
        if page is None or (page.rows and page.bytes_used + width > page.capacity):
            if page is not None:
                self._disk.append_page(self.handle, page, charge_io=self.charge_io)
            page = self._open_page = Page(self._page_size)
        page.rows.append(tuple(row))
        page.bytes_used += width
        self.num_tuples += 1
        self.total_bytes += width

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row)

    def flush(self) -> None:
        """Force the open page to disk (call after the last append)."""
        if self._open_page is not None and len(self._open_page):
            self._disk.append_page(self.handle, self._open_page, charge_io=self.charge_io)
        self._open_page = None

    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> None:
        """Load rows without charging I/O (experiment setup path)."""
        previous = self.charge_io
        self.charge_io = False
        try:
            self.extend(rows)
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
        self._open_page = None

    def __repr__(self) -> str:
        return (
            f"HeapFile({self.name!r}, tuples={self.num_tuples}, "
            f"pages={self.num_pages}, bytes={self.total_bytes})"
        )
