"""Experiment harness: runs monitored queries and extracts figure series.

Each benchmark in ``benchmarks/`` builds a database, runs one of the
paper's queries under a load profile via :func:`run_experiment`, and
prints the same series the corresponding paper figure plots (estimated
cost, execution speed, estimated/actual/optimizer remaining time,
completed percentage) plus shape metrics recorded in EXPERIMENTS.md.
"""

from repro.bench.figures import render_series, render_table
from repro.bench.harness import ExperimentResult, run_experiment
from repro.bench.metrics import (
    convergence_time,
    mean_abs_error,
    series_max,
    series_min,
    value_near,
)

__all__ = [
    "run_experiment",
    "ExperimentResult",
    "render_series",
    "render_table",
    "mean_abs_error",
    "convergence_time",
    "series_min",
    "series_max",
    "value_near",
]
