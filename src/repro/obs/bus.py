"""The TraceBus: typed events in, subscribers and a recorded stream out.

Design constraints, in order:

1. **Near-zero disabled cost.**  Tracing is off by default, and "off"
   means *no bus object exists*: every instrumented call site is written
   ``if trace is not None: trace.emit(...)``, so the disabled path is one
   attribute load and an identity test — no event construction, no
   indirection.  ``obs.trace_ratio`` in ``benchmarks/e2e/`` measures
   the enabled cost.
2. **Virtual time only.**  Events are stamped by their emitters with the
   virtual-clock instant they describe; the bus enforces that the stream
   is non-decreasing in ``t`` (a wall-clock read sneaking in would break
   this immediately under REPRO110 anyway).
3. **Replayability.**  The bus records every event in order; the JSONL
   exporter and the estimator-accuracy audit consume that list.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.errors import TraceError
from repro.obs.events import TraceEvent

#: Tolerance for same-instant events arriving in callback order.
_T_EPSILON = 1e-9

Subscriber = Callable[[TraceEvent], None]


class TraceBus:
    """Ordered, typed event stream for one monitored query execution."""

    __slots__ = ("events", "_subscribers", "_last_t", "_counts")

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._subscribers: list[Subscriber] = []
        self._last_t: Optional[float] = None
        self._counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # emission

    def emit(self, event: TraceEvent) -> None:
        """Append one event and fan it out to subscribers.

        Raises :class:`TraceError` if ``event.t`` runs backwards — every
        emitter stamps events with the virtual clock, so a regression
        means an instrumentation bug, not a data race.
        """
        if self._last_t is not None and event.t < self._last_t - _T_EPSILON:
            raise TraceError(
                f"non-monotonic trace event: {event.kind} at t={event.t} "
                f"after t={self._last_t}"
            )
        self._last_t = event.t if self._last_t is None else max(self._last_t, event.t)
        self.events.append(event)
        self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
        for subscriber in self._subscribers:
            subscriber(event)

    # ------------------------------------------------------------------
    # consumption

    def subscribe(self, fn: Subscriber) -> Callable[[], None]:
        """Register a live subscriber; returns an unsubscribe callable."""
        self._subscribers.append(fn)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(fn)
            except ValueError:
                pass

        return unsubscribe

    def of_kind(self, kind: str) -> Iterator[TraceEvent]:
        """Iterate recorded events of one kind, in emission order."""
        return (e for e in self.events if e.kind == kind)

    def counts(self) -> dict[str, int]:
        """Events recorded so far, by kind."""
        return dict(self._counts)

    def seal(self) -> "SealedTrace":
        """Snapshot the stream as a read-only view.

        Results handed to callers (``QueryHandle.trace()``,
        ``MonitoredResult.trace``) expose a sealed view rather than the
        live bus, so a finished query's trace cannot be extended or have
        subscribers attached after the fact.
        """
        return SealedTrace(tuple(self.events), dict(self._counts))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"TraceBus({len(self.events)} events)"


class SealedTrace:
    """Immutable view of a completed trace stream.

    Quacks like the read side of :class:`TraceBus` (``events``,
    ``of_kind``, ``counts``, ``len``) but has no ``emit`` or
    ``subscribe`` — the stream is closed.
    """

    __slots__ = ("_events", "_counts")

    def __init__(self, events: tuple[TraceEvent, ...], counts: dict[str, int]) -> None:
        self._events = events
        self._counts = counts

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return self._events

    def of_kind(self, kind: str) -> Iterator[TraceEvent]:
        """Iterate events of one kind, in emission order."""
        return (e for e in self._events if e.kind == kind)

    def counts(self) -> dict[str, int]:
        """Events by kind."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __repr__(self) -> str:
        return f"SealedTrace({len(self._events)} events)"
