"""Progress history: the recorded output of one monitored execution.

The paper's Section 6 lists uses for progress history — DBA triggers,
performance tuning ("see whether the originally estimated query cost is
precise enough and where the time goes") — all of which consume this log.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.report import ProgressReport


@dataclass(slots=True)
class ProgressLog:
    """The complete report history of one query execution."""

    reports: list[ProgressReport]
    started_at: float
    finished_at: float
    #: The optimizer's never-refined initial cost estimate, in U.
    initial_cost_pages: float

    @property
    def total_elapsed(self) -> float:
        return self.finished_at - self.started_at

    def __iter__(self) -> Iterator[ProgressReport]:
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    # ------------------------------------------------------------------
    # lookups

    def at(self, elapsed: float) -> Optional[ProgressReport]:
        """Latest report at or before ``elapsed`` seconds into the query."""
        best = None
        for report in self.reports:
            if report.elapsed <= elapsed:
                best = report
            else:
                break
        return best

    def final(self) -> ProgressReport:
        """The last (finished) report of the run."""
        return self.reports[-1]

    def actual_remaining(self, elapsed: float) -> float:
        """Ground truth: how long the query actually still had to run."""
        return max(0.0, self.total_elapsed - elapsed)

    # ------------------------------------------------------------------
    # series extraction (benchmark figures)

    def series(self, field: str) -> list[tuple[float, Optional[float]]]:
        """(elapsed, value) pairs for one report field."""
        return [(r.elapsed, getattr(r, field)) for r in self.reports]

    def estimated_cost_series(self) -> list[tuple[float, float]]:
        """Figure 4/9/13/17/18: estimated query cost (U) over time."""
        return [(r.elapsed, r.est_cost_pages) for r in self.reports]

    def speed_series(self) -> list[tuple[float, Optional[float]]]:
        """Figure 5/10/14: execution speed (U/s) over time."""
        return [(r.elapsed, r.speed_pages_per_sec) for r in self.reports]

    def remaining_series(self) -> list[tuple[float, Optional[float]]]:
        """Figure 6/11/15/19/20: estimated remaining time over time."""
        return [(r.elapsed, r.est_remaining_seconds) for r in self.reports]

    def percent_series(self) -> list[tuple[float, float]]:
        """Figure 7/12/16: completed percentage over time."""
        return [(r.elapsed, r.percent_done) for r in self.reports]

    # ------------------------------------------------------------------
    # diagnostics

    def mean_absolute_remaining_error(self) -> Optional[float]:
        """Mean |estimated - actual| remaining seconds across reports."""
        errors = [
            abs(r.est_remaining_seconds - self.actual_remaining(r.elapsed))
            for r in self.reports
            if r.est_remaining_seconds is not None
        ]
        if not errors:
            return None
        return math.fsum(errors) / len(errors)

    def to_csv(self) -> str:
        """Render the history as CSV (performance-tuning archive format)."""
        out = io.StringIO()
        out.write(
            "elapsed,done_pages,est_cost_pages,percent_done,"
            "speed_pages_per_sec,est_remaining_seconds,current_segment\n"
        )
        for r in self.reports:
            speed = "" if r.speed_pages_per_sec is None else f"{r.speed_pages_per_sec:.3f}"
            remaining = (
                "" if r.est_remaining_seconds is None else f"{r.est_remaining_seconds:.3f}"
            )
            segment = "" if r.current_segment is None else str(r.current_segment)
            out.write(
                f"{r.elapsed:.3f},{r.done_pages:.3f},{r.est_cost_pages:.3f},"
                f"{r.percent_done:.3f},{speed},{remaining},{segment}\n"
            )
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ProgressLog":
        """Rebuild an archived history (inverse of :meth:`to_csv`).

        The archive stores derived display fields, so the reconstructed
        log is suitable for the Section 6 uses (history inspection,
        performance tuning), not for resuming a live indicator.
        """
        lines = [line for line in text.strip().splitlines() if line]
        if not lines:
            raise ValueError("empty progress-log CSV")
        reports: list[ProgressReport] = []
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 7:
                raise ValueError(f"malformed progress-log CSV row: {line!r}")
            elapsed = float(fields[0])
            reports.append(
                ProgressReport(
                    time=elapsed,
                    elapsed=elapsed,
                    done_pages=float(fields[1]),
                    est_cost_pages=float(fields[2]),
                    fraction_done=float(fields[3]) / 100.0,
                    speed_pages_per_sec=float(fields[4]) if fields[4] else None,
                    est_remaining_seconds=float(fields[5]) if fields[5] else None,
                    current_segment=int(fields[6]) if fields[6] else None,
                )
            )
        if not reports:
            raise ValueError("progress-log CSV has no data rows")
        # Mark the last row as final, matching a finalized live log.
        last = reports[-1]
        reports[-1] = ProgressReport(
            time=last.time,
            elapsed=last.elapsed,
            done_pages=last.done_pages,
            est_cost_pages=last.est_cost_pages,
            fraction_done=last.fraction_done,
            speed_pages_per_sec=last.speed_pages_per_sec,
            est_remaining_seconds=last.est_remaining_seconds,
            current_segment=last.current_segment,
            finished=True,
        )
        return cls(
            reports=reports,
            started_at=0.0,
            finished_at=reports[-1].elapsed,
            initial_cost_pages=reports[0].est_cost_pages,
        )
