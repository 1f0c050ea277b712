"""Heap pages: fixed-byte-budget containers of rows."""

from __future__ import annotations


class Page:
    """A page holding whole rows up to a byte budget.

    Rows are stored as Python tuples; ``bytes_used`` tracks the sum of the
    rows' schema widths so scans can account for work in bytes without
    re-measuring every tuple.  Rows go in through a heap file's page writer
    (:class:`repro.storage.heap.HeapFile`), which owns the fit rule.
    """

    __slots__ = ("capacity", "rows", "bytes_used")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rows: list[tuple] = []
        self.bytes_used = 0

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Page(rows={len(self.rows)}, bytes={self.bytes_used}/{self.capacity})"
