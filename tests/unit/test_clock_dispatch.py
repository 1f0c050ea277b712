"""Ticker dispatch order of :class:`VirtualClock`, pinned exactly.

Progress reports and speed samples fire inside ``clock.advance``, so the
order in which due tickers are dispatched is part of the engine's
bit-identity contract.  The rule: every ticker due at an event fires in
*registration* order (not ``next_fire`` order), each catching up with its
own ``while`` loop; tickers registered during a dispatch wait for the
next one.  Every expected ``(ticker, fire_at)`` sequence and clock value
below was produced by the original linear-scan implementation.
"""

from repro.sim.clock import VirtualClock
from repro.sim.load import CPU, IO


def recorder(events, name):
    return lambda t: events.append((name, t))


class TestDispatchOrder:
    def test_ticker_cancelled_while_due(self):
        clock = VirtualClock()
        events = []
        a = clock.add_ticker(1.0, recorder(events, "a"))
        clock.add_ticker(1.0, recorder(events, "b"))
        clock.advance_wall(1.0)  # lands exactly on the event: nothing fires yet
        assert events == []
        a.cancel()
        clock.advance(0.25, CPU)
        assert events == [("b", 1.0)]
        assert clock.now == 1.25
        clock.advance(1.0, IO)
        assert events == [("b", 1.0), ("b", 2.0)]
        assert clock.now == 2.25

    def test_cancelled_before_due_keeps_stale_event_split(self):
        """A cancelled ticker's instant still splits the advance crossing
        it (``_next_event`` is refreshed only at events), so the float
        arithmetic of ``now`` is unchanged by when cancelled tickers are
        dropped."""
        clock = VirtualClock()
        events = []
        a = clock.add_ticker(0.7, recorder(events, "a"))
        clock.add_ticker(1.5, recorder(events, "b"))
        clock.advance(0.1, CPU)
        a.cancel()
        clock.advance(0.1, CPU)
        clock.advance(1.9, CPU)
        assert events == [("b", 1.5)]
        # Split at 0.7: 0.2 + 0.5, then 0.7 + 0.8, then 1.5 + 0.6 — not 0.2 + 1.9.
        assert clock.now == 2.0999999999999996

    def test_callback_registers_new_ticker(self):
        clock = VirtualClock()
        events = []
        added = []

        def a_cb(t):
            events.append(("a", t))
            if not added:
                # Due immediately, but not part of the running dispatch.
                added.append(
                    clock.add_ticker(1.0, recorder(events, "c"), first=clock.now)
                )
                added.append(clock.add_ticker(0.5, recorder(events, "d")))

        clock.add_ticker(1.0, a_cb)
        clock.add_ticker(1.0, recorder(events, "b"))
        clock.advance(2.25, CPU)
        assert events == [
            ("a", 1.0), ("b", 1.0), ("c", 1.0),
            ("d", 1.5),
            ("a", 2.0), ("b", 2.0), ("c", 2.0), ("d", 2.0),
        ]
        assert clock.now == 2.25

    def test_callback_cancels_later_registered_due_ticker(self):
        clock = VirtualClock()
        events = []
        tickers = {}

        def a_cb(t):
            events.append(("a", t))
            tickers["b"].cancel()

        clock.add_ticker(1.0, a_cb)
        tickers["b"] = clock.add_ticker(1.0, recorder(events, "b"))
        clock.add_ticker(1.0, recorder(events, "c"))
        clock.advance(2.5, CPU)
        assert events == [("a", 1.0), ("c", 1.0), ("a", 2.0), ("c", 2.0)]

    def test_callback_cancels_earlier_registered_ticker(self):
        clock = VirtualClock()
        events = []
        a = clock.add_ticker(1.0, recorder(events, "a"))

        def b_cb(t):
            events.append(("b", t))
            a.cancel()

        clock.add_ticker(1.0, b_cb)
        clock.advance(2.5, CPU)
        assert events == [("a", 1.0), ("b", 1.0), ("b", 2.0)]

    def test_callback_cancels_itself(self):
        clock = VirtualClock()
        events = []
        tickers = {}

        def a_cb(t):
            events.append(("a", t))
            tickers["a"].cancel()

        tickers["a"] = clock.add_ticker(0.25, a_cb, first=1.0)
        clock.add_ticker(1.0, recorder(events, "b"))
        clock.advance(3.0, CPU)
        assert events == [("a", 1.0), ("b", 1.0), ("b", 2.0), ("b", 3.0)]

    def test_near_simultaneous_tickers_fire_in_registration_order(self):
        clock = VirtualClock()
        events = []
        late = 1.0 + 5e-13  # within _EPSILON of 1.0, but a later instant
        assert late > 1.0
        clock.add_ticker(1.0, recorder(events, "a"), first=late)
        clock.add_ticker(1.0, recorder(events, "b"), first=1.0)
        clock.advance(1.5, CPU)
        assert events == [("a", late), ("b", 1.0)]
        clock.advance(1.0, CPU)
        assert events == [("a", late), ("b", 1.0), ("a", late + 1.0), ("b", 2.0)]

    def test_registration_order_beats_next_fire_order_across_intervals(self):
        clock = VirtualClock()
        events = []
        clock.add_ticker(3.0, recorder(events, "slow"))
        clock.add_ticker(1.0, recorder(events, "fast"))
        clock.advance(6.5, CPU)
        assert events == [
            ("fast", 1.0), ("fast", 2.0),
            ("slow", 3.0), ("fast", 3.0),
            ("fast", 4.0), ("fast", 5.0),
            ("slow", 6.0), ("fast", 6.0),
        ]

    def test_advance_wall_across_several_periods(self):
        clock = VirtualClock()
        events = []
        clock.add_ticker(2.0, recorder(events, "a"))
        clock.add_ticker(3.0, recorder(events, "b"))
        clock.advance_wall(12.5)
        assert events == [
            ("a", 2.0), ("b", 3.0), ("a", 4.0),
            ("a", 6.0), ("b", 6.0), ("a", 8.0), ("b", 9.0), ("a", 10.0),
            ("a", 12.0), ("b", 12.0),
        ]
        assert clock.now == 12.5

    def test_many_tickers_same_sequence_as_a_scan(self):
        """Eight tickers with colliding instants and two cancellations: the
        dispatch order equals a registration-order scan at every event."""
        clock = VirtualClock()
        events = []
        intervals = [0.5, 0.75, 1.0, 1.5, 0.25, 3.0, 0.5, 1.0]
        tickers = [
            clock.add_ticker(iv, recorder(events, i))
            for i, iv in enumerate(intervals)
        ]
        clock.advance(1.6, CPU)
        tickers[4].cancel()
        tickers[0].cancel()
        clock.advance_wall(1.5)
        expected = []
        # Reference: replay the linear scan by hand.
        nxt = list(intervals)
        active = [True] * len(intervals)
        grid = sorted({round(k * 0.25, 2) for k in range(1, 13)})
        for now in grid:
            if now > 1.6:
                active[4] = active[0] = False
            if now > 3.1:
                break
            for i, iv in enumerate(intervals):
                while active[i] and nxt[i] <= now + 1e-12:
                    expected.append((i, nxt[i]))
                    nxt[i] += iv
        assert events == expected
        assert clock.now == 3.1
