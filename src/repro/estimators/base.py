"""The pluggable estimation surface: snapshot dataclasses + the protocol.

An :class:`Estimator` observes one query's execution *passively*: it is
bound to the plan's segment specs and the executor's
:class:`~repro.executor.work.WorkTracker`, and on demand (each
refinement tick, and any on-demand ``report()``) recomputes an
:class:`EstimateSnapshot` of the whole query from the counters.  It never
touches executor state and charges no virtual time — estimation must not
change what it measures (the paper's Section 3 "minimal overhead" goal,
and the precondition for the bit-identity contracts the property tests
pin: swapping estimators never changes results, U totals, or timing).

Concrete estimators live next door:

* :mod:`repro.estimators.refinement` — the shared §4.3/§4.5 refinement
  core and the "paper" / "dne" / "tgn" blend rules;
* :mod:`repro.estimators.history` — history-learned correction factors;
* :mod:`repro.estimators.ensemble` — the online selector over all of the
  registered candidates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.core.segments import SegmentSpec
from repro.executor.work import WorkTracker

#: Provenance values for :attr:`InputEstimate.source` (§4.3 / §4.5):
#: base inputs move "ne" -> "overrun" -> "exact"; child inputs are
#: "child" (propagated moving estimate) or "child_final" (producer done).
INPUT_SOURCES = ("ne", "overrun", "exact", "child", "child_final")


@dataclass
class InputEstimate:
    """Refined view of one segment input."""

    index: int
    label: str
    rows_read: int
    bytes_read: float
    est_rows: float
    est_width: float
    dominant: bool
    #: Where ``est_rows`` comes from right now (one of INPUT_SOURCES).
    source: str = "ne"

    @property
    def est_bytes(self) -> float:
        return self.est_rows * self.est_width

    @property
    def progress(self) -> float:
        """Fraction of this input processed so far (q of Section 4.5)."""
        if self.est_rows <= 0:
            return 1.0
        return min(1.0, self.rows_read / self.est_rows)


@dataclass
class SegmentEstimate:
    """Refined view of one segment."""

    spec: SegmentSpec
    status: str  # "pending" | "running" | "finished"
    inputs: list[InputEstimate]
    #: Dominant-input fraction p (0 for pending, 1 for finished).
    p: float
    #: Current output-cardinality estimate E (exact when finished).
    est_output_rows: float
    est_output_width: float
    #: Current total cost estimate of this segment, in bytes.
    est_cost_bytes: float
    done_bytes: float
    #: The optimizer's re-invoked estimate E1 (upward propagation).
    e1: float = 0.0
    #: The pure extrapolation E2 = y/p; None while p == 0.
    e2: Optional[float] = None
    #: Index of the input currently deciding p (the arg-max progress
    #: among dominant inputs), or None before any progress / when done.
    dominant_input: Optional[int] = None

    @property
    def remaining_bytes(self) -> float:
        return max(0.0, self.est_cost_bytes - self.done_bytes)


@dataclass
class EstimateSnapshot:
    """A full refinement pass at one instant."""

    segments: list[SegmentEstimate]
    est_total_bytes: float
    done_bytes: float
    current_segment: Optional[int]

    @property
    def remaining_bytes(self) -> float:
        return max(0.0, self.est_total_bytes - self.done_bytes)

    @property
    def fraction_done(self) -> float:
        if self.est_total_bytes <= 0:
            return 1.0
        return min(1.0, self.done_bytes / self.est_total_bytes)

    def pages(self, page_size: int) -> tuple[float, float, float]:
        """(done, total, remaining) in U (pages)."""
        done = self.done_bytes / page_size
        # Equal byte counts (a finished query's) share one float object:
        # progress logs are kept, and each report's floats with them.
        if self.est_total_bytes == self.done_bytes:
            total = done
        else:
            total = self.est_total_bytes / page_size
        return (done, total, self.remaining_bytes / page_size)

    def remaining_seconds(
        self, page_size: int, speed_pages_per_sec: Optional[float]
    ) -> Optional[float]:
        """Remaining-time surface: estimated seconds of work left.

        The one conversion every consumer of an estimate shares — the
        indicator's reports and the service's admission/shedding control
        loop both divide remaining U by the observed speed.  ``None``
        when no usable speed exists yet (warmup, or a stalled query):
        control layers must treat "no estimate" as "take no action", not
        as zero.
        """
        if speed_pages_per_sec is None or speed_pages_per_sec <= 0:
            return None
        return (self.remaining_bytes / page_size) / speed_pages_per_sec


class Estimator(abc.ABC):
    """One progress-estimation strategy bound to a running query.

    Subclasses set the class attribute :attr:`name` (the registry key and
    the provenance string on reports/trace events) and implement
    :meth:`snapshot`.  The constructor signature is part of the registry
    contract: ``(specs, tracker)`` plus whatever keyword-only knobs the
    factory in :mod:`repro.estimators` threads through.
    """

    #: Registry key; overridden per subclass.
    name = "abstract"

    def __init__(self, specs: list[SegmentSpec], tracker: WorkTracker) -> None:
        self._specs = specs
        self._tracker = tracker

    @property
    def specs(self) -> list[SegmentSpec]:
        return self._specs

    @property
    def tracker(self) -> WorkTracker:
        return self._tracker

    @abc.abstractmethod
    def snapshot(self) -> EstimateSnapshot:
        """Recompute the full query estimate from the current counters."""

    def final_snapshot(self) -> EstimateSnapshot:
        """The snapshot of a query that ran to completion, for a reader
        of its totals only (the closing report of an untraced query).
        An estimator whose closing totals are the counters' may skip the
        per-segment estimates; by default this is :meth:`snapshot`."""
        return self.snapshot()

    @property
    def provenance(self) -> str:
        """What to stamp on reports (selectors append their choice)."""
        return self.name

    def on_finish(self) -> None:
        """Hook called once when the monitored query completes normally.

        History-learning estimators override this to feed the finished
        run's exact cardinalities back into their store.  Called behind
        the indicator's degrade boundary — a failure here cannot hurt the
        query — and *not* called for cancelled/timed-out/failed runs
        (their counters are not ground truth).
        """
