"""Progress reports: the fields of the paper's Figure 2 display."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, slots=True)
class ProgressReport:
    """One sample of the indicator's display state.

    Mirrors the paper's Figure 2: elapsed time, estimated remaining time,
    completed percentage, estimated cost in U, and execution speed in
    U/second (U = one page of bytes, Section 4.1).
    """

    #: Virtual-clock instant of the sample.
    time: float
    #: Seconds since the query started.
    elapsed: float
    #: Work done so far, in U (pages).
    done_pages: float
    #: Current total-cost estimate, in U.
    est_cost_pages: float
    #: Estimated completed fraction in [0, 1].
    fraction_done: float
    #: Current execution speed, U/second; None during warm-up.
    speed_pages_per_sec: Optional[float]
    #: Estimated remaining seconds; None during warm-up / zero speed.
    est_remaining_seconds: Optional[float]
    #: Id of the segment currently consuming its dominant input.
    current_segment: Optional[int]
    #: Whether the query has completed.
    finished: bool = False
    #: True when this sample is a fallback served because the refinement
    #: machinery raised (the degrade-don't-die boundary): the values come
    #: from the last good report or the optimizer's initial estimate, not
    #: from a fresh snapshot.
    degraded: bool = False
    #: Provenance of the estimate: the producing estimator's registry name
    #: ("paper", "dne", ...), or "ensemble:<name>" when the online
    #: selector served candidate <name>.  None on degraded optimizer
    #: fallbacks (no estimator produced the numbers).
    estimator: Optional[str] = None

    @property
    def percent_done(self) -> float:
        return 100.0 * self.fraction_done

    def format_line(self) -> str:
        """One-line rendering, e.g. for a console progress display."""
        remaining = (
            f"{self.est_remaining_seconds:8.1f}s left"
            if self.est_remaining_seconds is not None
            else "  (warming up)"
        )
        speed = (
            f"{self.speed_pages_per_sec:8.1f} U/s"
            if self.speed_pages_per_sec is not None
            else "       - U/s"
        )
        return (
            f"t={self.elapsed:8.1f}s  {self.percent_done:5.1f}% done  "
            f"cost={self.est_cost_pages:10.0f} U  {speed}  {remaining}"
        )
