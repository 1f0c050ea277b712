"""Experiment harness: runs monitored queries and extracts figure series.

:func:`run_experiment` runs one of the paper's queries on a database
under a load profile and returns the series the paper's figures plot
(estimated cost, execution speed, estimated/actual/optimizer remaining
time, completed percentage).  :mod:`repro.bench.experiments` is the
registry of every committed table, figure and ablation built on it;
``python -m repro reproduce`` is its command line.
"""

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
    "mean_abs_error",
    "convergence_time",
    "series_min",
    "series_max",
    "value_near",
]
