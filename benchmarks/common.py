"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables/figures: it runs the
experiment once inside pytest-benchmark (so `--benchmark-only` reports the
harness cost), prints the figure series, and writes the rendered text to
``benchmarks/results/<name>.txt`` so the series survive pytest's output
capture.

Alongside the rendered text, every bench persists a machine-readable
JSON document (schema ``repro.bench/1``) to ``benchmarks/results/
<name>.json`` via :func:`write_bench_json`, so figure series and summary
scalars can be diffed, plotted, and trended across PRs without re-parsing
the text tables:

    {"schema": "repro.bench/1", "bench": "<name>",
     "scalars": {...},                     # flat summary numbers
     "series": {"label": [[t, v], ...]},   # the figure's time series
     "meta": {...}}                        # free-form run parameters

Everything in these documents is virtual time, a pure function of the
seed; real (wall-clock) time is measured only by ``benchmarks/e2e/``.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Optional

from repro.config import SystemConfig

BENCH_SCHEMA = "repro.bench/1"

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Experiment scale and memory budget shared by all figure benches.  The
#: 24-page work_mem makes Q2's and Q4's second hash joins spill, matching
#: the multi-segment structure of the paper's PostgreSQL runs.
SCALE = 0.01


def experiment_config() -> SystemConfig:
    return SystemConfig(work_mem_pages=24)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def _jsonable(value: Any) -> Any:
    """JSON-safe copy: tuples -> lists, non-finite floats -> None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_bench_json(
    name: str,
    *,
    series: Optional[dict[str, Any]] = None,
    scalars: Optional[dict[str, Any]] = None,
    meta: Optional[dict[str, Any]] = None,
) -> pathlib.Path:
    """Persist one bench's machine-readable result document.

    ``series`` maps a label to ``[(t, value), ...]`` points (values may be
    None); ``scalars`` holds flat summary numbers; ``meta`` records run
    parameters.  Non-finite floats serialize as ``null`` so the files stay
    strict JSON.
    """
    doc: dict[str, Any] = {"schema": BENCH_SCHEMA, "bench": name}
    if meta:
        doc["meta"] = _jsonable(meta)
    if scalars:
        doc["scalars"] = _jsonable(scalars)
    if series:
        doc["series"] = {
            label: [[_jsonable(t), _jsonable(v)] for t, v in points]
            for label, points in series.items()
        }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def experiment_series(result) -> dict[str, Any]:
    """The standard series bundle of one :class:`ExperimentResult`."""
    return {
        "estimated_cost_pages": result.estimated_cost_series(),
        "speed_pages_per_s": result.speed_series(),
        "remaining_s": result.remaining_series(),
        "actual_remaining_s": result.actual_remaining_series(),
        "optimizer_remaining_s": result.optimizer_remaining_series(),
        "completed_percent": result.percent_series(),
    }


def experiment_scalars(result) -> dict[str, Any]:
    """The standard summary scalars of one :class:`ExperimentResult`."""
    return {
        "total_elapsed_s": result.total_elapsed,
        "exact_cost_pages": result.exact_cost_pages,
        "num_segments": result.num_segments,
    }
