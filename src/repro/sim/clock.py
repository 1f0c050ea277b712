"""The virtual clock that drives every experiment.

Operators charge *costs* (simulated seconds of work in a resource class);
the clock converts cost into elapsed virtual wall time by integrating the
active :class:`~repro.sim.load.LoadProfile` piecewise.  Registered
:class:`Ticker` callbacks fire at exact periodic instants, even when those
instants fall inside a single large ``advance`` — that is how the progress
indicator samples its state every 10 simulated seconds regardless of what
the executor happens to be doing.

``advance`` is the hottest function in the engine (one call per page I/O
and per tuple batch), so it keeps a precomputed fast path: when the step
stays strictly before the next "event" (ticker firing or load-profile
boundary) it is a couple of float operations.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter
from typing import Callable, Optional

from repro.sim.load import CPU, IO, LoadProfile

_EPSILON = 1e-12
_BY_SEQ = itemgetter(1)


def _cancelled(t: float) -> None:
    """A cancelled ticker's callback."""


class Ticker:
    """A periodic callback registered on a :class:`VirtualClock`."""

    __slots__ = ("interval", "callback", "next_fire", "active")

    def __init__(self, interval: float, callback: Callable[[float], None], first: float):
        if interval <= 0:
            raise ValueError("ticker interval must be positive")
        self.interval = interval
        self.callback = callback
        self.next_fire = first
        self.active = True

    def cancel(self) -> None:
        """Stop this ticker from firing again.  It stays in the clock's heap
        until its fire time, so it lets go of what its callback reaches."""
        self.active = False
        self.callback = _cancelled


class VirtualClock:
    """Simulated wall clock with load-aware cost accounting.

    Parameters
    ----------
    load:
        The system-load profile.  ``None`` means an unloaded system.
    """

    def __init__(self, load: Optional[LoadProfile] = None):
        self.now = 0.0
        self._load = load or LoadProfile.unloaded()
        #: Heap of ``(next_fire, seq, ticker)``, ``seq`` the registration
        #: number (the dispatch order of tickers due at one event).  A ticker
        #: being dispatched is out of it; cancelled ones drop out at the top.
        self._tickers: list[tuple[float, int, Ticker]] = []
        self._ticker_seq = itertools.count()
        #: Cumulative raw cost charged per resource class (load-independent).
        self.cost_charged = {IO: 0.0, CPU: 0.0}
        #: Re-entrancy guard: a ticker callback that observes the clock
        #: (sampling another query's indicator, emitting trace events)
        #: must not recursively re-fire tickers mid-dispatch.
        self._firing = False
        self._refresh_factors()

    # ------------------------------------------------------------------
    # configuration

    @property
    def load(self) -> LoadProfile:
        return self._load

    def set_load(self, load: LoadProfile) -> None:
        """Replace the load profile (takes effect immediately)."""
        self._load = load
        self._refresh_factors()

    def add_ticker(
        self,
        interval: float,
        callback: Callable[[float], None],
        first: Optional[float] = None,
    ) -> Ticker:
        """Register ``callback(now)`` to fire every ``interval`` seconds.

        ``first`` sets the first firing instant; it defaults to
        ``now + interval``.
        """
        ticker = Ticker(interval, callback, self.now + interval if first is None else first)
        heapq.heappush(
            self._tickers, (ticker.next_fire, next(self._ticker_seq), ticker)
        )
        self._reschedule()
        return ticker

    # ------------------------------------------------------------------
    # advancing time

    def advance(self, cost: float, resource: str = CPU) -> None:
        """Charge ``cost`` simulated seconds of ``resource`` work.

        Elapsed virtual wall time is ``cost`` scaled by the load factor(s)
        active along the way; ticker callbacks fire at their exact instants.
        """
        if cost < 0:
            raise ValueError("cannot charge negative cost")
        if cost == 0:
            return
        self.cost_charged[resource] += cost
        # Fast path: the whole step fits before the next event.
        factor = self._factors[resource]
        end = self.now + cost * factor
        if end < self._next_event:
            self.now = end
            return
        self._advance_slow(cost, resource)

    def advance_wall(self, seconds: float) -> None:
        """Advance pure wall time (idle waiting); fires tickers on the way."""
        if seconds < 0:
            raise ValueError("cannot advance backwards")
        target = self.now + seconds
        while True:
            event = self._next_event
            if event >= target:
                self.now = target
                return
            self.now = event
            self._fire_due()
            self._after_event()

    def _advance_slow(self, cost: float, resource: str) -> None:
        remaining = cost
        while remaining > _EPSILON:
            factor = self._factors[resource]
            event = self._next_event
            wall_needed = remaining * factor
            if self.now + wall_needed < event:
                self.now += wall_needed
                return
            # Consume work up to the event boundary, then handle the event.
            wall_step = event - self.now
            remaining -= wall_step / factor
            self.now = event
            self._fire_due()
            self._after_event()

    # ------------------------------------------------------------------
    # internals

    def _fire_due(self) -> None:
        """Fire all active tickers whose next_fire time has arrived.

        Due tickers fire in *registration* order (not ``next_fire``
        order: instants within ``_EPSILON`` of each other are one event),
        each catching up with its own ``while`` loop.  The due set is
        taken before the first callback runs, so a ticker registered by
        a callback waits for the next dispatch.  Refuses to recurse: a
        callback that advances the clock (directly or through code it
        calls) defers newly-due tickers to the in-flight dispatch loop
        rather than nesting a second one.
        """
        if self._firing:
            return
        self._firing = True
        heap = self._tickers
        due: list[tuple[float, int, Ticker]] = []
        try:
            horizon = self.now + _EPSILON
            while heap and heap[0][0] <= horizon:
                due.append(heapq.heappop(heap))
            if len(due) > 1:
                due.sort(key=_BY_SEQ)
            for _, _, ticker in due:
                while ticker.active and ticker.next_fire <= self.now + _EPSILON:
                    fire_at = ticker.next_fire
                    ticker.next_fire += ticker.interval
                    ticker.callback(fire_at)
        finally:
            for _, seq, ticker in due:
                if ticker.active:
                    heapq.heappush(heap, (ticker.next_fire, seq, ticker))
            self._firing = False

    def _refresh_factors(self) -> None:
        """Recompute cached per-resource factors and the next event time."""
        self._factors = {
            IO: self._load.factor(self.now, IO),
            CPU: self._load.factor(self.now, CPU),
        }
        #: The load profile's next boundary: the factors hold until then.
        self._next_change = self._load.next_change_after(self.now)
        self._reschedule()

    def _after_event(self) -> None:
        """After an event at ``now``: the factors change only at a load
        boundary, so before one a ticker event needs only rescheduling."""
        if self.now < self._next_change:
            self._reschedule()
        else:
            self._refresh_factors()

    def _reschedule(self) -> None:
        """The next event: the load boundary or the first active ticker."""
        next_event = self._next_change
        heap = self._tickers
        while heap and not heap[0][2].active:
            heapq.heappop(heap)
        if heap and heap[0][0] < next_event:
            next_event = heap[0][0]
        self._next_event = next_event

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:.3f})"
