"""Run workload-grid variants, score them, persist the leaderboard.

One leaderboard run executes a list of :class:`~repro.workloads.grid.Variant`
cells under the Session API with tracing on — databases are built once
per (scale × skew) dataset cell and restarted (cold buffer pool) between
variants, mirroring the paper's Section 5.1 protocol — and replays each
sealed trace through :mod:`repro.obs.observatory.scoring`.

The persisted form is schema-versioned JSON (``repro.leaderboard/2``).
Runs are deterministic — simulated engine, seeded generators, virtual
clock — so the document is stable and diffable; it deliberately carries
no wall-clock timestamp.  The tier-1 board is the experiment registry's
``leaderboard_tier1`` entry (:mod:`repro.bench.experiments`):
``python -m repro reproduce --check`` recomputes it byte for byte, and
its claims (full coverage, no monotonicity violation, the selector no
worse than ``paper``, ceilings on the headline errors) are the accuracy
gate.

Schema version 2 (the pluggable-estimator redesign): cells run under the
ensemble selector by default, the board records which ``estimator``
submitted the queries, and ``estimators`` holds one aggregate column per
registered candidate, scored from its ``candidate_estimated`` stream with
the identical metric definitions as the displayed reports.  The selector
row is the board's top-level ``aggregates`` (the displayed stream *is*
the selector's choice); the ``paper`` column is the pre-redesign
baseline path, bit-identical by construction.

Aggregates (over *scored* cells; the q-error percentiles come from an
:class:`repro.obs.metrics.Histogram`, the same estimator whose p50/p95/p99
lines the flat metrics exporter emits):

* ``cells_total`` / ``cells_scored`` / ``coverage`` — population counts;
  cells ending in cancelled/timed-out/failed count toward total only.
* ``qerror_geomean`` — geometric mean of per-cell q-error geomeans.
* ``qerror_p50`` / ``qerror_p95`` / ``qerror_p99`` — histogram-estimated
  percentiles of the per-cell q-error geomeans.
* ``qerror_max`` — worst single-report q-error anywhere in the grid.
* ``progress_err_mean`` / ``progress_err_max`` — mean of per-cell means /
  max of per-cell maxes of the absolute progress error.
* ``monotonicity_violations`` — total count across cells.
* ``tt10_mean`` — mean time-to-within-10% elapsed fraction.
* ``reports_total`` / ``reports_degraded`` — coverage of the report
  population, including degraded fallbacks (excluded from error metrics).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, TextIO, Union

from repro.config import SystemConfig
from repro.database import Database
from repro.obs.bus import TraceBus
from repro.obs.metrics import Histogram
from repro.obs.observatory.scoring import (
    QueryScore,
    score_candidate_events,
    score_events,
)
from repro.workloads.grid import Variant

LEADERBOARD_SCHEMA = "repro.leaderboard/2"

#: The estimator leaderboard runs submit queries with (races every
#: registered candidate and scores each one's stream).
DEFAULT_RUN_ESTIMATOR = "ensemble"

#: Histogram bounds for per-cell q-error geomeans.  A q-error is >= 1 by
#: definition, so the leaderboard clamps the histogram's interpolated
#: quantiles (whose first bucket interpolates from 0) back to >= 1.
_QERROR_BOUNDS = (
    1.0, 1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0,
    20.0, 50.0, 100.0,
)

#: The grid runs under the experiment memory budget of the paper benches
#: (24-page work_mem makes the bigger joins spill into multi-segment
#: plans, so blocking/multi-stage refinement is exercised, not just scans).
def grid_config() -> SystemConfig:
    return SystemConfig(work_mem_pages=24)


@dataclass(frozen=True)
class LeaderboardCell:
    """One scored grid cell: the variant's axes plus its score card."""

    name: str
    scale: str
    skew: str
    shape: str
    selectivity: str
    terminal: str
    scored: bool
    reports_total: int
    reports_degraded: int
    reports_estimated: int
    qerror_geomean: Optional[float]
    qerror_max: Optional[float]
    progress_err_mean: Optional[float]
    progress_err_max: Optional[float]
    monotonicity_violations: Optional[int]
    time_to_within_10: Optional[float]
    elapsed: Optional[float]
    actual_cost_pages: Optional[float]
    row_count: Optional[int]


@dataclass(frozen=True)
class Leaderboard:
    """One persisted leaderboard run."""

    schema: str
    grid: str
    cells: tuple[LeaderboardCell, ...]
    aggregates: dict[str, float]
    #: Which estimator the cells were submitted with ("ensemble": the
    #: online selector; ``aggregates`` then scores the selector's
    #: displayed stream).
    estimator: str = DEFAULT_RUN_ESTIMATOR
    #: Per-candidate aggregate columns, keyed by estimator name, each
    #: computed with :func:`aggregate_cells` over that candidate's
    #: ``candidate_estimated`` stream.  Empty when the run's estimator
    #: emitted no candidate events (any non-ensemble estimator).
    estimators: dict[str, dict[str, float]] = field(default_factory=dict)

    def cell(self, name: str) -> Optional[LeaderboardCell]:
        return next((c for c in self.cells if c.name == name), None)


# ----------------------------------------------------------------------
# running


def _cell_from_score(
    variant: Variant, score: QueryScore, row_count: Optional[int]
) -> LeaderboardCell:
    return LeaderboardCell(
        name=variant.name,
        scale=variant.scale_key,
        skew=variant.skew,
        shape=variant.shape,
        selectivity=variant.selectivity_key,
        terminal=score.terminal,
        scored=score.scored,
        reports_total=score.reports_total,
        reports_degraded=score.reports_degraded,
        reports_estimated=score.reports_estimated,
        qerror_geomean=score.qerror_geomean,
        qerror_max=score.qerror_max,
        progress_err_mean=score.progress_err_mean,
        progress_err_max=score.progress_err_max,
        monotonicity_violations=score.monotonicity_violations,
        time_to_within_10=score.time_to_within_10,
        elapsed=score.elapsed,
        actual_cost_pages=score.actual_cost_pages,
        row_count=row_count,
    )


def run_leaderboard(
    variants: list[Variant],
    grid_name: str,
    config: Optional[SystemConfig] = None,
    echo: Optional[Callable[[str], None]] = None,
    estimator: str = DEFAULT_RUN_ESTIMATOR,
) -> Leaderboard:
    """Execute and score every variant; return the aggregated board.

    Databases are cached per (scale × skew) dataset cell and restarted
    before each variant, so every query starts on a cold buffer pool.
    A variant whose query raises is still scored from its trace (the
    terminal event records the failure) and counts against coverage.

    ``estimator`` is the submit-time strategy; the default ensemble also
    emits every candidate's estimates, which land in per-estimator
    aggregate columns.  Dataset caching is per invocation, so learned
    history never leaks between runs — two identical calls produce
    byte-identical boards.
    """
    config = config if config is not None else grid_config()
    datasets: dict[tuple[str, str], Database] = {}
    cells: list[LeaderboardCell] = []
    candidate_cells: dict[str, list[LeaderboardCell]] = {}
    for variant in variants:
        db = datasets.get(variant.dataset_key)
        if db is None:
            db = datasets[variant.dataset_key] = variant.build_database(config)
        db.restart()
        trace = TraceBus()
        row_count: Optional[int] = None
        try:
            handle = db.connect().submit(
                variant.sql, name=variant.name, trace=trace, keep_rows=False,
                estimator=estimator,
            )
            row_count = handle.result().row_count
        except Exception:  # noqa: BLE001 - a failing cell is a data point,
            # not a leaderboard abort; whatever the trace recorded (possibly
            # nothing, for a plan-time failure) scores it as unscored.
            pass
        events = list(trace.events)
        score = score_events(events)
        cells.append(_cell_from_score(variant, score, row_count))
        for name, cand_score in score_candidate_events(events).items():
            candidate_cells.setdefault(name, []).append(
                _cell_from_score(variant, cand_score, row_count)
            )
        if echo is not None:
            echo(_cell_line(cells[-1]))
    return Leaderboard(
        schema=LEADERBOARD_SCHEMA,
        grid=grid_name,
        cells=tuple(cells),
        aggregates=aggregate_cells(cells),
        estimator=estimator,
        estimators={
            name: aggregate_cells(cand)
            for name, cand in sorted(candidate_cells.items())
        },
    )


def _cell_line(cell: LeaderboardCell) -> str:
    if not cell.scored:
        return f"{cell.name:<28} {cell.terminal:>10}  (not scored)"
    assert cell.qerror_geomean is not None
    assert cell.progress_err_mean is not None
    assert cell.time_to_within_10 is not None
    return (
        f"{cell.name:<28} qerr {cell.qerror_geomean:6.2f}  "
        f"perr {100 * cell.progress_err_mean:5.1f}%  "
        f"tt10 {cell.time_to_within_10:4.2f}  "
        f"mono {cell.monotonicity_violations}  "
        f"T {cell.elapsed:7.1f}s"
    )


# ----------------------------------------------------------------------
# aggregation


def aggregate_cells(cells: list[LeaderboardCell]) -> dict[str, float]:
    """The committed aggregate definitions (see module docstring)."""
    scored = [c for c in cells if c.scored]
    aggregates: dict[str, float] = {
        "cells_total": float(len(cells)),
        "cells_scored": float(len(scored)),
        "coverage": (len(scored) / len(cells)) if cells else 0.0,
        "reports_total": math.fsum(c.reports_total for c in cells),
        "reports_degraded": math.fsum(c.reports_degraded for c in cells),
    }
    if not scored:
        return {k: round(v, 9) for k, v in aggregates.items()}

    qerror_hist = Histogram("qerror", _QERROR_BOUNDS)
    geomeans: list[float] = []
    for c in scored:
        if c.qerror_geomean is not None:
            geomeans.append(c.qerror_geomean)
            qerror_hist.observe(c.qerror_geomean)
    if geomeans:
        aggregates["qerror_geomean"] = math.exp(
            math.fsum(math.log(g) for g in geomeans) / len(geomeans)
        )
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            quantile = qerror_hist.quantile(q)
            assert quantile is not None
            aggregates[f"qerror_{label}"] = max(1.0, quantile)
        aggregates["qerror_max"] = max(
            c.qerror_max for c in scored if c.qerror_max is not None
        )
    progress_means = [
        c.progress_err_mean for c in scored if c.progress_err_mean is not None
    ]
    aggregates["progress_err_mean"] = math.fsum(progress_means) / len(progress_means)
    aggregates["progress_err_max"] = max(
        c.progress_err_max for c in scored if c.progress_err_max is not None
    )
    aggregates["monotonicity_violations"] = math.fsum(
        c.monotonicity_violations or 0 for c in scored
    )
    tt10 = [
        c.time_to_within_10 for c in scored if c.time_to_within_10 is not None
    ]
    aggregates["tt10_mean"] = math.fsum(tt10) / len(tt10)
    # Round: the values are deterministic, but rounding keeps the committed
    # JSON readable and immune to libm last-bit differences.
    return {k: round(v, 9) for k, v in aggregates.items()}


# ----------------------------------------------------------------------
# persistence


def leaderboard_doc(board: Leaderboard) -> dict:
    """One leaderboard run as its schema-versioned JSON document."""
    return {
        "schema": board.schema,
        "grid": board.grid,
        "estimator": board.estimator,
        "aggregates": board.aggregates,
        "estimators": board.estimators,
        "cells": [asdict(c) for c in board.cells],
    }


def write_leaderboard(
    board: Leaderboard, target: Union[str, Path, TextIO]
) -> dict:
    """Serialize one leaderboard run to schema-versioned JSON."""
    doc = leaderboard_doc(board)
    if hasattr(target, "write"):
        json.dump(doc, target, indent=2, sort_keys=True)  # type: ignore[arg-type]
        target.write("\n")  # type: ignore[union-attr]
    else:
        path = Path(target)  # type: ignore[arg-type]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return doc


#: The headline metrics shown as per-estimator columns by the CLI.
_COLUMN_METRICS = (
    ("qerror_geomean", "qerr_gm"),
    ("qerror_max", "qerr_max"),
    ("progress_err_mean", "perr_mean"),
    ("tt10_mean", "tt10"),
    ("monotonicity_violations", "mono"),
)


def render_aggregates(board: Leaderboard) -> str:
    """Aligned aggregate table for the CLI."""
    lines = [
        f"leaderboard: grid={board.grid} cells={len(board.cells)} "
        f"estimator={board.estimator}"
    ]
    for key in sorted(board.aggregates):
        lines.append(f"  {key:<24} {board.aggregates[key]:.6g}")
    if board.estimators:
        lines.append("")
        lines.append("per-estimator candidate streams "
                     "(selector row = the aggregates above):")
        header = f"  {'estimator':<12}" + "".join(
            f" {short:>10}" for _, short in _COLUMN_METRICS
        )
        lines.append(header)
        rows = [(f"[{board.estimator}]", board.aggregates)]
        rows += sorted(board.estimators.items())
        for name, aggs in rows:
            cols = "".join(
                f" {aggs[metric]:>10.4g}" if metric in aggs else f" {'-':>10}"
                for metric, _ in _COLUMN_METRICS
            )
            lines.append(f"  {name:<12}{cols}")
    return "\n".join(lines)
