"""The benchmark's own span recorder (the traced run).

Spans are recorded from the benchmark's files, around the calls into
each layer - spans inside the program are a later change.  A span is
``(name, start_ns, end_ns, parent, query)``; spans of one op share its
``query`` id; ``parent`` is the index of the enclosing span (-1 for a
root).  Everything stays in memory until :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator, Optional

NAME, START, END, PARENT, QUERY = range(5)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query: Optional[str] = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        if query is None and parent >= 0:
            query = self.spans[parent][QUERY]
        index = len(self.spans)
        record = [name, 0, 0, parent, query]
        self.spans.append(record)
        self._open.append(index)
        record[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[END] = time.perf_counter_ns()
            self._open.pop()

    def total_ns(self) -> dict[str, int]:
        """Summed duration per span name."""
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[NAME]] = out.get(span[NAME], 0) + span[END] - span[START]
        return out

    def self_ns(self) -> dict[str, int]:
        """Summed *self* time per span name: a span's duration minus the
        part of it its direct children cover."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        out: dict[str, int] = {}
        for span, child_ns in zip(self.spans, covered):
            own = span[END] - span[START] - child_ns
            out[span[NAME]] = out.get(span[NAME], 0) + own
        return out

    def dump(self, path) -> None:
        doc = {
            "columns": ["name", "start_ns", "end_ns", "parent", "query"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
