"""Run one monitored query and package everything the figures need."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.baseline import OptimizerBaseline, StepBaseline
from repro.core.history import ProgressLog
from repro.database import Database
from repro.sim.load import LoadProfile

if TYPE_CHECKING:  # pragma: no cover - obs is imported lazily
    from repro.obs.bus import SealedTrace


@dataclass
class ExperimentResult:
    """Everything one figure/bench needs from a monitored run."""

    name: str
    sql: str
    log: ProgressLog
    optimizer_baseline: OptimizerBaseline
    total_elapsed: float
    row_count: int
    num_segments: int
    segment_boundaries: list[tuple[int, float]] = field(default_factory=list)
    #: Sealed view of the recorded trace when tracing was on, else None.
    trace: Optional["SealedTrace"] = None

    # -- figure series --------------------------------------------------

    def estimated_cost_series(self) -> list[tuple[float, float]]:
        """Figures 4/9/13/17/18: estimated query cost (U) over time."""
        return self.log.estimated_cost_series()

    def speed_series(self) -> list[tuple[float, Optional[float]]]:
        """Figures 5/10/14: execution speed (U/s) over time."""
        return self.log.speed_series()

    def percent_series(self) -> list[tuple[float, float]]:
        """Figures 7/12/16: completed percentage over time."""
        return self.log.percent_series()

    def remaining_series(self) -> list[tuple[float, Optional[float]]]:
        """Figures 6/11/15/19/20: estimated remaining seconds over time."""
        return self.log.remaining_series()

    def actual_remaining_series(self) -> list[tuple[float, float]]:
        """The dashed ground-truth line: true remaining seconds over time."""
        return [
            (t, max(0.0, self.total_elapsed - t))
            for t, _ in self.log.remaining_series()
        ]

    def optimizer_remaining_series(self) -> list[tuple[float, float]]:
        """The dotted baseline: the optimizer's remaining-time estimate."""
        return [
            (t, self.optimizer_baseline.remaining(t))
            for t, _ in self.log.remaining_series()
        ]

    @property
    def exact_cost_pages(self) -> float:
        """The exact query cost in U, known once the query completed."""
        return self.log.final().est_cost_pages


def run_experiment(
    name: str,
    db: Database,
    sql: str,
    load: Optional[LoadProfile] = None,
    keep_rows: bool = False,
) -> ExperimentResult:
    """Run ``sql`` on ``db`` under ``load`` with a progress indicator.

    Mirrors the paper's protocol (Section 5.1): the buffer pool starts
    cold, the load profile models any concurrent job, and the indicator's
    outputs are stored for post-processing.

    Tracing follows ``REPRO_TRACE``; when it names a directory, the
    recorded trace is also exported there as ``<name>.trace.jsonl`` +
    ``<name>.trace.json``.
    """
    db.restart()
    if load is not None:
        db.set_load(load)
    monitored = db.connect().submit(
        sql, name=name, keep_rows=keep_rows
    ).monitored()
    if monitored.trace is not None:
        _export_trace_artifacts(name, monitored.trace)

    tracker = monitored.indicator.tracker
    step = StepBaseline(monitored.indicator.segments, tracker)
    boundaries = [
        (seg.segment_id, seg.finished_at)
        for seg in tracker.segments
        if seg.finished_at is not None
    ]
    return ExperimentResult(
        name=name,
        sql=sql,
        log=monitored.log,
        optimizer_baseline=OptimizerBaseline(
            monitored.indicator.segments, db.config
        ),
        total_elapsed=monitored.result.elapsed,
        row_count=monitored.result.row_count,
        num_segments=step.total_steps,
        segment_boundaries=boundaries,
        trace=monitored.trace,
    )


def _export_trace_artifacts(name: str, trace: "SealedTrace") -> None:
    """Write JSONL + Chrome trace files when REPRO_TRACE names a dir."""
    from repro.obs import trace_artifact_dir, write_chrome_trace, write_jsonl

    out_dir = trace_artifact_dir()
    if out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = name.lower().replace(" ", "_").replace("/", "_")
    write_jsonl(trace.events, out_dir / f"{stem}.trace.jsonl")
    write_chrome_trace(trace.events, out_dir / f"{stem}.trace.json")
