"""The experiment registry: every committed table, figure and ablation.

The paper's evidence is Section 5: Table 1 and Figures 4-20.
EXPERIMENTS.md quotes them, and the ablations beside them, from the files
under ``benchmarks/results/``.  Each :class:`Experiment` owns some of
those files.  Its ``run`` computes them in memory, as ``repro.bench/1``
JSON documents and rendered figure texts.  Its ``claims`` are the paper's
shape statements ("Q2's initial estimate is too low", "Q4 shows two
learning phases") as named predicates over the documents.

Every number is virtual time, a pure function of the code and its seeds;
real time is measured by ``benchmarks/e2e/`` alone.  ``python -m repro
reproduce`` prints the summary from the committed documents, ``--check``
recomputes every entry and compares it byte for byte with the committed
files, and ``--write`` regenerates them and tallies each claim.

A document::

    {"schema": "repro.bench/1", "bench": "<name>",
     "scalars": {...},                     # flat summary numbers
     "series": {"label": [[t, v], ...]},   # the figure's time series
     "meta": {...}}                        # run parameters

The one exception is ``leaderboard_tier1``, the tier-1 accuracy
leaderboard in its own ``repro.leaderboard/2`` format
(:mod:`repro.obs.observatory`).  Every float reduction on the way to a
committed number is ``math.fsum``, which is correctly rounded, so the
bytes are the same under every Python minor (lint rule REPRO112).
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.bench import metrics
from repro.bench.harness import ExperimentResult, run_experiment
from repro.config import SystemConfig
from repro.core.baseline import closer_to_actual
from repro.core.indicator import ProgressIndicator
from repro.database import Database
from repro.executor.base import ExecContext
from repro.executor.runtime import run_query
from repro.fault import FaultPlan, RetryPolicy
from repro.fault.plan import BufferPressureWindow, SlowDiskWindow
from repro.obs.observatory import leaderboard_doc, run_leaderboard
from repro.sched.task import DONE_STATES
from repro.sim.load import InterferenceWindow, LoadProfile
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string
from repro.workloads import correlated, queries, tpcr
from repro.workloads.grid import resolve_grid

BENCH_SCHEMA = "repro.bench/1"
RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"

#: Scale and memory budget of the paper experiments.  The 24-page
#: work_mem makes Q2's and Q4's second hash joins spill, matching the
#: multi-segment structure of the paper's PostgreSQL runs.
SCALE = 0.01
CONFIG = SystemConfig(work_mem_pages=24)

#: Entry name -> its parsed JSON document.
Docs = Mapping[str, Any]
Series = Sequence[tuple[float, Optional[float]]]


@dataclass(frozen=True)
class Experiment:
    """One registry entry: an experiment, the files it owns, its claims."""

    #: Also the stem of its JSON document, ``<name>.json``.
    name: str
    #: Where the paper states it, or the EXPERIMENTS.md ablation it is.
    anchor: str
    #: Computes every owned file: file name -> JSON document or text.
    run: Callable[[], dict[str, Any]]
    #: Shape claims: name -> predicate over the entry's document.
    claims: dict[str, Claim]
    #: Its rendered figure texts, when not the one ``<name>.txt``.
    texts: Optional[tuple[str, ...]] = None

    @property
    def files(self) -> tuple[str, ...]:
        """The files it owns under ``benchmarks/results/``."""
        texts = (f"{self.name}.txt",) if self.texts is None else self.texts
        return (f"{self.name}.json", *texts)


# ----------------------------------------------------------------------
# Documents and figure texts


def _jsonable(value: Any) -> Any:
    """JSON-safe copy: tuples -> lists, non-finite floats -> None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _doc(
    name: str,
    *,
    series: Optional[dict[str, Series]] = None,
    scalars: Optional[dict[str, Any]] = None,
    meta: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """One ``repro.bench/1`` document (see the module docstring)."""
    doc: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "meta": _jsonable(meta or {}),
    }
    if scalars:
        doc["scalars"] = _jsonable(scalars)
    if series:
        doc["series"] = _jsonable(series)
    return doc


def _experiment_doc(
    name: str, result: ExperimentResult, meta: dict[str, Any], **scalars: Any
) -> dict[str, Any]:
    """The standard document of one monitored run."""
    return _doc(
        name,
        series={
            "estimated_cost_pages": result.estimated_cost_series(),
            "speed_pages_per_s": result.speed_series(),
            "remaining_s": result.remaining_series(),
            "actual_remaining_s": result.actual_remaining_series(),
            "optimizer_remaining_s": result.optimizer_remaining_series(),
            "completed_percent": result.percent_series(),
        },
        scalars={
            "total_elapsed_s": result.total_elapsed,
            "exact_cost_pages": result.exact_cost_pages,
            "num_segments": result.num_segments,
            **scalars,
        },
        meta=meta,
    )


def render_table(
    columns: dict[str, Series], title: str = "", time_label: str = "t(s)"
) -> str:
    """Render aligned columns of one or more series sharing time points."""
    lines: list[str] = []
    if title:
        lines.append(title)
    names = list(columns)
    times: list[float] = []
    for series in columns.values():
        for t, _ in series:
            if not times or t > times[-1]:
                times.append(t)
    by_name = {name: dict(series) for name, series in columns.items()}
    header = f"{time_label:>10}  " + "  ".join(f"{n:>16}" for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    for t in times:
        cells = []
        for name in names:
            v = by_name[name].get(t)
            cells.append(f"{v:16.1f}" if v is not None else f"{'-':>16}")
        lines.append(f"{t:10.1f}  " + "  ".join(cells))
    return "\n".join(lines)


def _cost_columns(result: ExperimentResult, exact: bool = True) -> dict[str, Series]:
    cost = result.estimated_cost_series()
    columns: dict[str, Series] = {"estimated cost (U)": cost}
    if exact:
        columns["exact cost (U)"] = [(t, result.exact_cost_pages) for t, _ in cost]
    return columns


def _remaining_columns(
    result: ExperimentResult, optimizer: bool = True
) -> dict[str, Series]:
    columns: dict[str, Series] = {
        "indicator (s)": result.remaining_series(),
        "actual (s)": result.actual_remaining_series(),
    }
    if optimizer:
        columns["optimizer (s)"] = result.optimizer_remaining_series()
    return columns


def _four_figures(
    result: ExperimentResult,
    names: Sequence[str],
    titles: Sequence[str],
    exact: bool = True,
) -> dict[str, str]:
    """Cost, speed, remaining time and percent done: Figures 4-7/9-16."""
    columns = (
        _cost_columns(result, exact),
        {"speed (U/s)": result.speed_series()},
        _remaining_columns(result),
        {"completed %": result.percent_series()},
    )
    return {
        name: render_table(cols, title=title)
        for name, cols, title in zip(names, columns, titles)
    }


def _unloaded_titles(first: int, query: str) -> list[str]:
    what = (
        "query cost estimated",
        "query execution speed",
        "remaining execution time",
        "completed percentage",
    )
    return [
        f"Figure {first + i}: {w} over time (unloaded, {query})"
        for i, w in enumerate(what)
    ]


def _tpcr(config: SystemConfig = CONFIG, scale: float = SCALE) -> Database:
    return tpcr.build_database(scale=scale, config=config)


# ----------------------------------------------------------------------
# Claim helpers: views over documents


class Run:
    """What a claim reads: one entry's document, its scalars by key
    (``r["key"]``), the standard experiment series, and any other
    entry's document (``r.other(name)``)."""

    def __init__(self, doc: Mapping[str, Any], docs: Optional[Docs] = None) -> None:
        self.doc, self.docs = doc, docs or {}
        self.scalars: dict[str, Any] = doc.get("scalars", {})
        self.series: dict[str, Any] = doc.get("series", {})

    def __getitem__(self, key: str) -> Any:
        return self.scalars[key]

    def other(self, name: str) -> Run:
        return Run(self.docs[name], self.docs)

    cost = property(lambda self: self.series["estimated_cost_pages"])
    speed = property(lambda self: self.series["speed_pages_per_s"])
    rem = property(lambda self: self.series["remaining_s"])
    act = property(lambda self: self.series["actual_remaining_s"])
    opt = property(lambda self: self.series["optimizer_remaining_s"])
    pct = property(lambda self: self.series["completed_percent"])
    elapsed = property(lambda self: self["total_elapsed_s"])
    exact = property(lambda self: self["exact_cost_pages"])
    segments = property(lambda self: self["num_segments"])

    def indicator_error(self) -> Optional[float]:
        """Mean |estimated - actual| remaining seconds, the indicator."""
        return metrics.mean_abs_error(self.rem, self.act)

    def optimizer_error(self) -> Optional[float]:
        """Mean |estimated - actual| remaining seconds, the baseline."""
        return metrics.mean_abs_error(self.opt, self.act)

    def convergence(self, tolerance: float = 0.02) -> Optional[float]:
        """When the cost estimate reached the exact cost and stayed."""
        return metrics.convergence_time(self.cost, self.exact, tolerance)

    def tracks_actual_from(self, start: float, bound: float) -> bool:
        """Defined estimates from ``start`` on are within ``bound`` of actual."""
        act = dict(self.act)
        late = [(t, v) for t, v in self.rem if v is not None and t >= start]
        return bool(late) and all(abs(v - act[t]) <= bound for t, v in late)


Claim = Callable[[Run], bool]


def _flat(series: Series, within: float) -> bool:
    """The defined values span at most ``within`` of the largest."""
    top = metrics.series_max(series)
    return top - metrics.series_min(series) <= within * top


def _complete(r: Run) -> bool:
    """Percent done never decreases and ends at exactly 100."""
    return metrics.is_nondecreasing(r.pct) and math.isclose(r.pct[-1][1], 100.0)


def _beats_optimizer(r: Run) -> bool:
    """The indicator's remaining-time error is at most the baseline's,
    strictly below it wherever the baseline is more than 1 s off."""
    ind, opt = r.indicator_error(), r.optimizer_error()
    return ind is not None and opt is not None and (ind < opt or ind <= opt <= 1.0)


def _converges(r: Run) -> bool:
    return r.convergence() is not None


# ----------------------------------------------------------------------
# T1 - Table 1: the test data set

#: The paper's Table 1: relation -> (tuples, total size in MB).
PAPER_TABLE1 = {
    "customer": (150_000, 23.0),
    "orders": (1_500_000, 114.0),
    "lineitem": (6_000_000, 755.0),
    "customer_subset1": (3_000, 0.46),
    "customer_subset2": (3_000, 0.46),
}


def _table1() -> dict[str, Any]:
    db = tpcr.build_database(scale=SCALE)
    lines = [
        "Table 1: test data set (paper values at scale 1.0; ours at "
        f"scale {SCALE})",
        f"{'relation':<18} {'tuples':>10} {'size(MB)':>10}   "
        f"{'paper tuples':>13} {'paper MB':>9}   {'proj. MB @1.0':>13}",
        "-" * 82,
    ]
    relations = {}
    for name, (paper_rows, paper_mb) in PAPER_TABLE1.items():
        table = db.catalog.get_table(name)
        size_mb = table.heap.total_bytes / 1e6
        # The subsets are fixed-size in the paper: no projection.
        projected = size_mb if name.startswith("customer_subset") else size_mb / SCALE
        relations[name] = {
            "tuples": table.num_tuples,
            "size_mb": size_mb,
            "paper_tuples": paper_rows,
            "paper_mb": paper_mb,
            "projected_mb_at_scale_1": projected,
        }
        lines.append(
            f"{name:<18} {table.num_tuples:>10} {size_mb:>10.2f}   "
            f"{paper_rows:>13} {paper_mb:>9.2f}   {projected:>13.1f}"
        )
    return {
        "table1_data_set.txt": "\n".join(lines),
        "table1_data_set.json": _doc(
            "table1_data_set", scalars={"scale": SCALE}, meta={"relations": relations}
        ),
    }


def _ratio(r: Run, key: str, big: str, small: str) -> float:
    relations = r.doc["meta"]["relations"]
    return relations[big][key] / relations[small][key]


TABLE1_CLAIMS: dict[str, Claim] = {
    "ten_orders_per_customer": lambda r: _ratio(r, "tuples", "orders", "customer")
    == 10,
    "four_lineitems_per_order": lambda r: _ratio(r, "tuples", "lineitem", "orders")
    == 4,
    # Size ordering: lineitem >> orders >> customer.
    "lineitem_over_4x_orders_bytes": lambda r: _ratio(
        r, "size_mb", "lineitem", "orders"
    )
    > 4,
    "orders_over_3x_customer_bytes": lambda r: _ratio(
        r, "size_mb", "orders", "customer"
    )
    > 3,
}


# ----------------------------------------------------------------------
# F4-F20 - the paper's figures


Q1_FIGURES = (
    "fig04_q1_cost.txt",
    "fig05_q1_speed.txt",
    "fig06_q1_remaining.txt",
    "fig07_q1_percent.txt",
)


def _q1() -> dict[str, Any]:
    result = run_experiment("Q1-unloaded", _tpcr(), queries.Q1)
    titles = _unloaded_titles(4, "Q1")
    return _four_figures(result, Q1_FIGURES, titles, exact=False) | {
        "q1_unloaded.json": _experiment_doc(
            "q1_unloaded",
            result,
            {"query": "Q1", "scale": SCALE, "figures": [4, 5, 6, 7]},
        )
    }


Q1_CLAIMS: dict[str, Claim] = {
    # "almost a straight line".
    "fig4_cost_estimate_flat": lambda r: _flat(r.cost, 0.02),
    "fig5_speed_stable": lambda r: _flat(r.speed, 0.15),
    "fig6_indicator_tracks_actual": lambda r: r.indicator_error() < 0.1 * r.elapsed,
    "fig6_indicator_beats_optimizer_line": lambda r: r.indicator_error()
    < r.optimizer_error(),
    # "the dotted line is not far from the dashed line".
    "fig6_optimizer_line_not_far_off": lambda r: r.optimizer_error()
    < 0.4 * r.elapsed,
    "fig7_percent_nearly_linear": lambda r: all(
        abs(p - 100.0 * t / r.elapsed) < 8.0 for t, p in r.pct
    ),
    "cost_estimate_converges": _converges,
}


Q2_FIGURES = (
    "fig09_q2_cost.txt",
    "fig10_q2_speed.txt",
    "fig11_q2_remaining.txt",
    "fig12_q2_percent.txt",
)


def _q2() -> dict[str, Any]:
    result = run_experiment("Q2-unloaded", _tpcr(), queries.Q2)
    return _four_figures(result, Q2_FIGURES, _unloaded_titles(9, "Q2")) | {
        "q2_unloaded.json": _experiment_doc(
            "q2_unloaded",
            result,
            {"query": "Q2", "scale": SCALE, "figures": [9, 10, 11, 12]},
            first_join_end_s=_first_join_end(result),
        )
    }


def _first_join_end(result: ExperimentResult) -> float:
    """When Q2's/Q4's first join finishes and the lineitem pipeline starts:
    its probe pipeline is the second segment to finish, after the
    customer hash build."""
    return sorted(t for _, t in result.segment_boundaries)[1]


def _flat_before_lineitem(r: Run) -> bool:
    """Nothing refines the lineitem estimate before its scan starts
    (Section 5.3.1 point 4)."""
    early = [(t, v) for t, v in r.cost if t <= 0.9 * r["first_join_end_s"]]
    return len(early) >= 2 and _flat(early, 0.02)


def _pointwise_wins(r: Run, share: float) -> bool:
    """The indicator is closer to actual than the optimizer at ``share``
    of the reports."""
    act, opt = dict(r.act), dict(r.opt)
    defined = [(t, v) for t, v in r.rem if v is not None]
    wins = sum(1 for t, v in defined if closer_to_actual(v, opt[t], act[t]))
    return bool(defined) and wins / len(defined) >= share


Q2_CLAIMS: dict[str, Claim] = {
    # The default 1/3 selectivity makes the initial cost a too-low constant.
    "fig9_initial_estimate_too_low": lambda r: r.cost[0][1] < 0.85 * r.exact,
    "fig9_flat_during_first_join": _flat_before_lineitem,
    "fig9_estimate_nondecreasing": lambda r: metrics.is_nondecreasing(
        r.cost, slack=1.0
    ),
    "fig9_reaches_exact_before_completion": lambda r: _converges(r)
    and r.convergence() < 0.95 * r.elapsed,
    # "the closer to query completion, the more precise".
    "fig11_converges_to_actual_remaining": lambda r: all(
        abs(v - dict(r.act)[t]) < 0.15 * r.elapsed
        for t, v in r.rem
        if v is not None and t > 0.8 * r.elapsed
    ),
    "fig11_indicator_much_better_than_optimizer": lambda r: r.indicator_error()
    < 0.6 * r.optimizer_error(),
    "fig12_percent_increases": _complete,
    "four_segments_like_figure3": lambda r: r.segments == 4,
    # The paper's recurring claim, point by point.
    "pointwise_wins_over_optimizer": lambda r: _pointwise_wins(r, 0.8),
}

#: The file copy of Figures 13-16 (paper: during [190 s, 885 s)).
COPY_START, COPY_END, COPY_SLOWDOWN = 120.0, 400.0, 3.0
Q2_IO_FIGURES = (
    "fig13_q2io_cost.txt",
    "fig14_q2io_speed.txt",
    "fig15_q2io_remaining.txt",
    "fig16_q2io_percent.txt",
)


def _q2_io() -> dict[str, Any]:
    unloaded = run_experiment("Q2-unloaded", _tpcr(), queries.Q2)
    load = LoadProfile.file_copy(COPY_START, COPY_END, COPY_SLOWDOWN)
    result = run_experiment("Q2-io", _tpcr(), queries.Q2, load=load)
    header = (
        f"(file copy active from t={COPY_START:.0f}s to t={COPY_END:.0f}s, "
        f"{COPY_SLOWDOWN:.0f}x I/O slowdown)"
    )
    what = (
        "estimated cost",
        "execution speed",
        "remaining time",
        "completed percentage",
    )
    titles = [
        f"Figure {13 + i}: {w}, I/O interference {header}" for i, w in enumerate(what)
    ]
    return _four_figures(result, Q2_IO_FIGURES, titles) | {
        "q2_io_interference.json": _experiment_doc(
            "q2_io_interference",
            result,
            {
                "query": "Q2",
                "scale": SCALE,
                "figures": [13, 14, 15, 16],
                "copy_start_s": COPY_START,
                "copy_end_s": COPY_END,
                "io_slowdown": COPY_SLOWDOWN,
            },
            unloaded_elapsed_s=unloaded.total_elapsed,
        )
    }


def _speed_drops(r: Run) -> bool:
    before = [v for t, v in r.speed if v is not None and t < COPY_START - 10]
    during = [
        v
        for t, v in r.speed
        if v is not None and COPY_START + 60 < t < COPY_END - 10
    ]
    return bool(before and during) and min(before) > max(during)


def _jumps(series: Series, before: float, after: float) -> bool:
    """The value near ``after`` is above the value near ``before``."""
    return metrics.value_near(series, after) > metrics.value_near(series, before)


def _same_exact_cost(r: Run) -> bool:
    """Fig 13: the final estimate is the exact cost, and that is the
    unloaded run's exact cost; only the learning is slower."""
    unloaded = r.other("q2_unloaded")
    return r.cost[-1][1] == r.exact and math.isclose(
        r.exact, unloaded.exact, rel_tol=0.02
    )


Q2_IO_CLAIMS: dict[str, Claim] = {
    # The copy stretches the query (paper: 510 s -> 1027 s).
    "query_runs_longer_than_unloaded": lambda r: r.elapsed
    > 1.2 * r["unloaded_elapsed_s"],
    "fig13_same_exact_cost": _same_exact_cost,
    "fig13_learning_slows_during_copy": lambda r: r.convergence()
    > r.other("q2_unloaded").convergence(),
    "fig14_speed_drops_during_copy": _speed_drops,
    "fig15_remaining_jumps_at_copy_start": lambda r: _jumps(
        r.rem, COPY_START - 5, COPY_START + 45
    ),
    "fig15_remaining_drops_after_copy_ends": lambda r: _jumps(
        r.rem, COPY_END + 30, COPY_END - 10
    ),
    "fig15_indicator_beats_optimizer": lambda r: r.indicator_error()
    < 0.6 * r.optimizer_error(),
    "fig16_percent_still_monotone": lambda r: metrics.is_nondecreasing(r.pct),
    "cost_estimate_converges": _converges,
}


def _q3() -> dict[str, Any]:
    db = correlated.build_database(scale=SCALE, config=CONFIG)
    result = run_experiment("Q3-correlated", db, queries.Q3)
    return {
        "fig17_q3_cost.txt": render_table(
            _cost_columns(result),
            title="Figure 17: query cost estimated over time (unloaded, Q3, "
            "correlated data)",
        ),
        "q3_correlation.json": _experiment_doc(
            "q3_correlation",
            result,
            {"query": "Q3", "scale": SCALE, "figures": [17], "generator": "correlated"},
        ),
    }


Q3_CLAIMS: dict[str, Claim] = {
    # Too low: the correlation is invisible to the optimizer.
    "initial_estimate_too_low": lambda r: r.cost[0][1] < 0.95 * r.exact,
    "estimate_ramps_to_exact": lambda r: _converges(r)
    and r.convergence() < r.elapsed,
    "estimate_flat_after_reaching_exact": lambda r: _converges(r)
    and _flat([(t, v) for t, v in r.cost if t >= r.convergence()], 0.03),
    "indicator_beats_optimizer": _beats_optimizer,
}


def _q4() -> dict[str, Any]:
    result = run_experiment("Q4-unloaded", _tpcr(), queries.Q4)
    first_join_end = _first_join_end(result)
    return {
        "fig18_q4_cost.txt": render_table(
            _cost_columns(result),
            title=(
                "Figure 18: query cost estimated over time (unloaded, Q4)\n"
                f"(first join finishes / second join starts at t="
                f"{first_join_end:.0f}s)"
            ),
        ),
        "q4_two_errors.json": _experiment_doc(
            "q4_two_errors",
            result,
            {"query": "Q4", "scale": SCALE, "figures": [18]},
            first_join_end_s=first_join_end,
        ),
    }


def _two_learning_phases(r: Run) -> bool:
    """"the progress indicator makes adjustments to both optimizer
    estimation errors": the cost estimate rises both before and after
    the first join finishes."""
    boundary = r["first_join_end_s"]
    rises = [t1 for (_, v0), (t1, v1) in zip(r.cost, r.cost[1:]) if v1 > v0 * 1.005]
    return any(t <= boundary for t in rises) and any(t > boundary for t in rises)


Q4_CLAIMS: dict[str, Claim] = {
    "two_distinct_learning_phases": _two_learning_phases,
    "converges_to_exact": _converges,
    "indicator_beats_optimizer": _beats_optimizer,
}


def _q5() -> dict[str, Any]:
    result = run_experiment("Q5-unloaded", _tpcr(), queries.Q5)
    return {
        "fig19_q5_remaining.txt": render_table(
            _remaining_columns(result, optimizer=False),
            title="Figure 19: remaining execution time over time (unloaded, Q5)",
        ),
        "q5_unloaded.json": _experiment_doc(
            "q5_unloaded", result, {"query": "Q5", "scale": SCALE, "figures": [19]}
        ),
    }


def _q5_tracks_actual(r: Run) -> bool:
    """After the first full speed window (the first report's window still
    holds the inner relation's materialization), the estimate is within
    15% of the run of actual, at five or more reports."""
    late = [t for t, v in r.rem if v is not None and t >= 20.0]
    return len(late) >= 5 and r.tracks_actual_from(20.0, 0.15 * r.elapsed + 5.0)


Q5_CLAIMS: dict[str, Claim] = {
    # One segment: the dominant input is the outer relation.
    "one_segment": lambda r: r.segments == 1,
    "fig19_indicator_tracks_actual": _q5_tracks_actual,
    "indicator_beats_optimizer": _beats_optimizer,
    "cost_estimate_converges": _converges,
}

#: The CPU hog of Figure 20 (paper: from 120 s to completion).
HOG_START, HOG_SLOWDOWN = 120.0, 2.5


def _q5_cpu() -> dict[str, Any]:
    unloaded = run_experiment("Q5-unloaded", _tpcr(), queries.Q5)
    load = LoadProfile.cpu_hog(HOG_START, slowdown=HOG_SLOWDOWN)
    result = run_experiment("Q5-cpu", _tpcr(), queries.Q5, load=load)
    return {
        "fig20_q5cpu_remaining.txt": render_table(
            _remaining_columns(result, optimizer=False),
            title=(
                "Figure 20: remaining execution time over time "
                f"(CPU interference from t={HOG_START:.0f}s, "
                f"{HOG_SLOWDOWN:.1f}x slowdown, Q5)"
            ),
        ),
        "q5_cpu_interference.json": _experiment_doc(
            "q5_cpu_interference",
            result,
            {
                "query": "Q5",
                "scale": SCALE,
                "figures": [20],
                "hog_start_s": HOG_START,
                "cpu_slowdown": HOG_SLOWDOWN,
            },
            unloaded_elapsed_s=unloaded.total_elapsed,
        ),
    }


Q5_CPU_CLAIMS: dict[str, Claim] = {
    # The hog stretches the query (paper: 211 s -> 463 s).
    "fig20_query_slows_down": lambda r: r.elapsed > 1.3 * r["unloaded_elapsed_s"],
    "fig20_remaining_jumps_at_hog_start": lambda r: _jumps(
        r.rem, HOG_START - 5, HOG_START + 45
    ),
    # "starting from 140 seconds ... almost coincides" (Section 5.6.2).
    "fig20_tracks_actual_soon_after_onset": lambda r: r.tracks_actual_from(
        HOG_START + 50, 0.2 * r.elapsed
    ),
    "indicator_beats_optimizer": _beats_optimizer,
    "cost_estimate_converges": _converges,
}


# ----------------------------------------------------------------------
# A1 - speed estimators (Section 4.6)
#
# Under a persistent shift (a file copy that never stops) the adaptive
# estimators must beat the whole-history mean.  Under an oscillating load
# no local estimator can predict the switches - the paper's own caveat -
# so those numbers are reported, not claimed.

PERSISTENT = LoadProfile.file_copy(80.0, math.inf, slowdown=3.0)
OSCILLATING = LoadProfile(
    [
        InterferenceWindow(80.0, 180.0, io_factor=3.0),
        InterferenceWindow(280.0, 380.0, io_factor=3.0),
    ]
)
SPEED_ESTIMATORS = ("window", "decay", "global")


def _ablation_speed() -> dict[str, Any]:
    errors = {
        scenario: {
            kind: _remaining_error(
                run_experiment(
                    f"Q2-{scenario}-{kind}",
                    _tpcr(CONFIG.with_progress(speed_estimator=kind)),
                    queries.Q2,
                    load=load,
                )
            )
            for kind in SPEED_ESTIMATORS
        }
        for scenario, load in (("persistent", PERSISTENT), ("oscillating", OSCILLATING))
    }
    lines = [
        "Ablation A1: speed estimators (Q2; mean |est-actual| remaining, s)",
        f"{'estimator':<12} {'persistent shift':>18} {'oscillating':>14}",
        "-" * 48,
    ]
    for kind in SPEED_ESTIMATORS:
        lines.append(
            f"{kind:<12} {errors['persistent'][kind]:>18.1f} "
            f"{errors['oscillating'][kind]:>14.1f}"
        )
    lines.append(
        "(oscillating: the paper's Section 4.6 caveat — local estimators "
        "cannot predict load switches)"
    )
    return {
        "ablation_speed.txt": "\n".join(lines),
        "ablation_speed.json": _doc(
            "ablation_speed",
            scalars={
                f"{scenario}_{kind}_err_s": errors[scenario][kind]
                for scenario in errors
                for kind in SPEED_ESTIMATORS
            },
            meta={"scale": SCALE, "query": "Q2", "estimators": list(SPEED_ESTIMATORS)},
        ),
    }


def _remaining_error(result: ExperimentResult) -> Optional[float]:
    return metrics.mean_abs_error(
        result.remaining_series(), result.actual_remaining_series()
    )


# ----------------------------------------------------------------------
# A2 - the refinement formula E = p*E2 + (1-p)*E1 (Section 4.5)
#
# Uniform output (Q2's always-true predicate): raw extrapolation E2 = y/p
# is exact almost at once, and never learning is worst.  Skewed output
# (every qualifying row at the scan's tail): y = 0 for most of the scan,
# raw E2 collapses to 0, and the paper's blend, anchored to E1, wins.

#: Printed mode label -> registered estimator implementing that rule.
REFINE_MODES = {"paper": "paper", "optimizer": "tgn", "extrapolate": "dne"}
#: Rows stored in increasing v order; the filter matches only the top ~8%.
#: The ORDER BY puts a sort (a counted segment output) above the filter,
#: so the output estimate matters to the cost.
SKEW_ROWS = 30_000
SKEW_SQL = f"select v, pad from skew where v >= {int(SKEW_ROWS * 0.92)} order by v"


def _skew_db(config: SystemConfig, values: Sequence[int]) -> Database:
    db = Database(config=config)
    db.create_table(
        "skew",
        Schema([Column("v", INTEGER), Column("pad", string(60))]),
        ((v, "x" * 48) for v in values),
    )
    db.analyze()
    return db


def _cost_error(result: ExperimentResult) -> float:
    exact = result.exact_cost_pages
    points = [abs(v - exact) for _, v in result.estimated_cost_series()]
    return math.fsum(points) / len(points)


def _ablation_refine() -> dict[str, Any]:
    uniform, skewed = {}, {}
    for mode, estimator in REFINE_MODES.items():
        config = CONFIG.with_progress(estimator=estimator)
        uniform[mode] = _cost_error(
            run_experiment(f"Q2-{mode}", _tpcr(config), queries.Q2)
        )
        skewed[mode] = _cost_error(
            run_experiment(
                f"skew-{mode}", _skew_db(config, range(SKEW_ROWS)), SKEW_SQL
            )
        )
    lines = [
        "Ablation A2: output-cardinality refinement formula",
        "(mean |estimated cost - exact| in U, lower is better)",
        f"{'mode':<14} {'uniform (Q2)':>14} {'skewed tail':>14}",
        "-" * 46,
    ]
    for mode in REFINE_MODES:
        lines.append(f"{mode:<14} {uniform[mode]:>14.1f} {skewed[mode]:>14.1f}")
    return {
        "ablation_refine.txt": "\n".join(lines),
        "ablation_refine.json": _doc(
            "ablation_refine",
            scalars={f"uniform_{m}_err_pages": uniform[m] for m in REFINE_MODES}
            | {f"skewed_{m}_err_pages": skewed[m] for m in REFINE_MODES},
            meta={"scale": SCALE, "modes": list(REFINE_MODES), "skew_rows": SKEW_ROWS},
        ),
    }


# ----------------------------------------------------------------------
# A3 - sort-merge join: two dominant inputs, p = max(qA, qB) (Section 4.5,
# not in the paper's prototype)

MERGE_SQL = (
    "select c.custkey, c.acctbal, o.orderkey, o.totalprice "
    "from customer c, orders o where c.custkey = o.custkey"
)


def _sort_merge() -> dict[str, Any]:
    config = CONFIG.with_planner(enable_hashjoin=False, enable_nestloop=False)
    result = run_experiment("merge-join", _tpcr(config), MERGE_SQL)
    return {
        "sort_merge_remaining.txt": render_table(
            _remaining_columns(result, optimizer=False),
            title=(
                "Extension A3: remaining time for a forced sort-merge join\n"
                "(two dominant inputs, p = max(qA, qB))"
            ),
        ),
        "sort_merge.json": _experiment_doc(
            "sort_merge", result, {"scale": SCALE, "plan": "forced merge join"}
        ),
    }


# ----------------------------------------------------------------------
# A4 - speed-window length T (Section 4.6: "not too small ... not too
# large"; the paper fixes T = 10 s)

WINDOWS = (2.0, 5.0, 10.0, 30.0, 120.0)


def _ablation_window() -> dict[str, Any]:
    load = LoadProfile.file_copy(COPY_START, COPY_END, COPY_SLOWDOWN)
    errors = {
        w: _remaining_error(
            run_experiment(
                f"Q2-T{w:g}",
                _tpcr(CONFIG.with_progress(speed_window=w)),
                queries.Q2,
                load=load,
            )
        )
        for w in WINDOWS
    }
    lines = [
        "Ablation A4: sliding-window length T (Q2, I/O interference)",
        "(the paper fixes T = 10 s)",
        f"{'T (s)':>8} {'mean |est-actual| remaining (s)':>34}",
        "-" * 44,
    ]
    lines += [f"{w:>8.0f} {errors[w]:>34.1f}" for w in WINDOWS]
    return {
        "ablation_window.txt": "\n".join(lines),
        "ablation_window.json": _doc(
            "ablation_window",
            scalars={f"t{w:g}_err_s": errors[w] for w in WINDOWS},
            meta={"scale": SCALE, "query": "Q2", "windows_s": list(WINDOWS)},
        ),
    }


# ----------------------------------------------------------------------
# A5 - organic concurrency on the cooperative scheduler
#
# N queries interleave on one shared virtual clock and buffer pool, so
# each indicator observes the others as load.  The scheduler's real-time
# cost at concurrency 1 is ``sched.solo_ratio`` in ``benchmarks/e2e/``.

CONCURRENT_SCALE = 0.005
LEVELS = (1, 4, 16)
#: Submission rotation: scan-heavy and join-heavy queries mixed.
MIX = ("Q1", "Q2", "Q4")
#: A perfectly predictable solo scan has error ~0, which would make
#: "within 2x of solo" unsatisfiable under any real contention; the floor
#: is the solo error of the join queries.
ACCURACY_FLOOR = 0.125


def _normalized_error(log: Any, elapsed: float) -> float:
    """Mean |remaining-time error| as a fraction of the query's run time
    (NaN, written as null, when no report had an estimate)."""
    actual = [(t, max(0.0, elapsed - t)) for t, _ in log.remaining_series()]
    error = metrics.mean_abs_error(log.remaining_series(), actual)
    return math.nan if error is None else error / elapsed


def _concurrent_db() -> Database:
    return _tpcr(scale=CONCURRENT_SCALE)


def _concurrent_scheduler() -> dict[str, Any]:
    solo = {}
    for qname in MIX:
        handle = _concurrent_db().connect().submit(
            queries.PAPER_QUERIES[qname], name=qname, keep_rows=False
        )
        handle.result()
        solo[qname] = _normalized_error(handle.log, handle.task.result.elapsed)
    scalars: dict[str, Any] = {f"solo_{q.lower()}_err": e for q, e in solo.items()}
    lines = [
        "Extension A5: cooperative scheduler, accuracy under contention",
        "  solo baselines (|err|/elapsed)  : "
        + "  ".join(f"{q}={e:.3f}" for q, e in solo.items()),
        "",
        f"  {'concurrency':>12} {'slices':>8} {'clock (s)':>10} "
        f"{'mean |err|/elapsed':>20}",
    ]
    for n in LEVELS:
        session = _concurrent_db().connect()
        for i in range(n):
            qname = MIX[i % len(MIX)]
            session.submit(
                queries.PAPER_QUERIES[qname], name=f"{qname.lower()}-{i + 1}",
                keep_rows=False,
            )
        tasks = [h.task for h in session.run()]
        errors = {t.name: _normalized_error(t.log, t.result.elapsed) for t in tasks}
        scalars[f"c{n}_mean_err"] = math.fsum(errors.values()) / n
        scalars |= {f"c{n}_{name}_err": e for name, e in errors.items()}
        scalars[f"c{n}_finished"] = sum(
            1
            for t in tasks
            if t.state == "finished" and t.log.final().fraction_done >= 1.0 - 1e-9
        )
        lines.append(
            f"  {n:>12} {sum(len(t.slices) for t in tasks):>8} "
            f"{max(t.finished_at for t in tasks):>10.1f} "
            f"{scalars[f'c{n}_mean_err']:>20.3f}"
        )
    return {
        "concurrent_scheduler.txt": "\n".join(lines),
        "concurrent_scheduler.json": _doc(
            "concurrent_scheduler",
            scalars=scalars,
            meta={"scale": CONCURRENT_SCALE, "levels": list(LEVELS), "mix": list(MIX)},
        ),
    }


def _within_2x_of_solo(r: Run) -> bool:
    """Every query's accuracy stays within 2x of the same query alone
    (floored: see ACCURACY_FLOOR)."""
    audited = [
        (m.group(1), err)
        for key, err in r.scalars.items()
        if (m := re.fullmatch(r"c\d+_(q\d)-\d+_err", key))
    ]
    return bool(audited) and all(
        err <= 2.0 * max(r[f"solo_{q}_err"], ACCURACY_FLOOR) for q, err in audited
    )


def _direct_monitored(db: Database, sql: str) -> tuple[Any, Any]:
    """The pre-scheduler monitored path: indicator + run_query, no slicing."""
    planned = db.prepare(sql)
    indicator = ProgressIndicator(planned, db.clock, db.config, label="direct")
    ctx = ExecContext(
        db.clock, db.disk, db.buffer_pool, db.config, tracker=indicator.tracker
    )
    result = run_query(planned, ctx, keep_rows=False)
    return result, indicator.finalize()


def _peak(series: Series) -> float:
    return max(v for _, v in series if v is not None)


def _concurrent_q1() -> dict[str, Any]:
    """Q1 alongside Q2: the interference-figure signature, no windows."""
    solo, solo_log = _direct_monitored(_concurrent_db(), queries.Q1)
    session = _concurrent_db().connect()
    q1 = session.submit(queries.Q1, name="Q1", keep_rows=False)
    session.submit(queries.Q2, name="Q2", keep_rows=False)
    session.run()
    log, elapsed = q1.task.log, q1.task.result.elapsed
    remaining = log.remaining_series()
    actual = [(t, max(0.0, elapsed - t)) for t, _ in remaining]
    return {
        "concurrent_q1_remaining.txt": render_table(
            {"indicator (s)": remaining, "actual (s)": actual},
            title=(
                "Extension A5: Q1 remaining time while Q2 runs concurrently\n"
                f"(solo Q1: {solo.elapsed:.1f}s; concurrent Q1: {elapsed:.1f}s)"
            ),
        ),
        "concurrent_q1_remaining.json": _doc(
            "concurrent_q1_remaining",
            series={"remaining_s": remaining, "actual_remaining_s": actual},
            scalars={
                "solo_elapsed_s": solo.elapsed,
                "concurrent_elapsed_s": elapsed,
                "solo_peak_speed_pages_per_s": _peak(solo_log.speed_series()),
                "concurrent_peak_speed_pages_per_s": _peak(log.speed_series()),
            },
            meta={"scale": CONCURRENT_SCALE, "mix": ["Q1", "Q2"]},
        ),
    }


# ----------------------------------------------------------------------
# A6 - byte-accounting granularity
#
# Scans report bytes per tuple (the default) or per page.  For a CPU-bound
# consumer like Q5, where one 8 KB page feeds ~20 virtual seconds of join
# work, page granularity starves the 10 s speed window: the reproduction's
# one non-obvious fidelity detail, and the reason Figure 19 works at all.

GRANULARITY_CUTOFF = 20.0


def _ablation_granularity() -> dict[str, Any]:
    lines = [
        "Ablation A6: scan byte-reporting granularity",
        "(mean |est-actual| remaining after t=20s; undefined = reports with "
        "no speed estimate)",
        f"{'query':<6} {'granularity':<12} {'mean error (s)':>15} {'undefined':>10}",
        "-" * 48,
    ]
    scalars = {}
    for query in ("Q5", "Q1"):
        for granularity in ("tuple", "page"):
            config = CONFIG.with_progress(scan_granularity=granularity)
            result = run_experiment(
                f"{query}-{granularity}", _tpcr(config), queries.PAPER_QUERIES[query]
            )
            act = dict(result.actual_remaining_series())
            late = [
                (t, v)
                for t, v in result.remaining_series()
                if t >= GRANULARITY_CUTOFF
            ]
            errors = [abs(v - act[t]) for t, v in late if v is not None]
            undefined = len(late) - len(errors)
            mean = math.fsum(errors) / len(errors) if errors else math.inf
            lines.append(
                f"{query:<6} {granularity:<12} "
                f"{f'{mean:.1f}' if errors else 'inf':>15} {undefined:>10}"
            )
            prefix = f"{query.lower()}_{granularity}"
            scalars[f"{prefix}_mean_error_s"] = mean
            scalars[f"{prefix}_undefined_reports"] = undefined
    return {
        "ablation_granularity.txt": "\n".join(lines),
        "ablation_granularity.json": _doc(
            "ablation_granularity",
            scalars=scalars,
            meta={"scale": SCALE, "cutoff_s": GRANULARITY_CUTOFF},
        ),
    }


def _mean_error(r: Run, prefix: str) -> float:
    """A mean error that may be ``null`` (no defined estimate: infinite)."""
    value = r[f"{prefix}_mean_error_s"]
    return math.inf if value is None else value


def _tuple_beats_page(r: Run) -> bool:
    """CPU-bound Q5: tuple granularity is far more accurate, or page
    granularity is mostly undefined."""
    return _mean_error(r, "q5_tuple") < _mean_error(r, "q5_page") or (
        r["q5_page_undefined_reports"] > 2 * r["q5_tuple_undefined_reports"]
    )


# ----------------------------------------------------------------------
# A7 - warm buffer pool (Section 5.1: "the results were similar, so we do
# not present them here").  The gated real-time cost of a cold pool is
# ``storage.cold_ratio`` in ``benchmarks/e2e/``.


def _warm_cache() -> dict[str, Any]:
    db = _tpcr()
    cold = run_experiment("Q2-cold", db, queries.Q2)
    # No restart: the pool keeps the pages the first run read.
    handle = db.connect().submit(queries.Q2, name="Q2-warm", keep_rows=False)
    warm = handle.monitored().log
    return {
        "warm_cache.txt": render_table(
            {
                "cold cost (U)": cold.estimated_cost_series(),
                "warm cost (U)": warm.estimated_cost_series(),
            },
            title=(
                "Extension A7: Q2 estimated cost, cold vs warm buffer pool\n"
                f"(cold run {cold.total_elapsed:.0f}s, warm run "
                f"{warm.total_elapsed:.0f}s of virtual time)"
            ),
        ),
        "warm_cache.json": _doc(
            "warm_cache",
            series={
                "cold_cost_pages": cold.estimated_cost_series(),
                "warm_cost_pages": warm.estimated_cost_series(),
            },
            scalars={
                "cold_elapsed_s": cold.total_elapsed,
                "warm_elapsed_s": warm.total_elapsed,
                "exact_cost_pages": cold.exact_cost_pages,
            },
            meta={"query": "Q2", "scale": SCALE},
        ),
    }


def _warm_converges(r: Run) -> bool:
    warm = r.series["warm_cost_pages"]
    return metrics.convergence_time(warm, warm[-1][1], 0.02) is not None


# ----------------------------------------------------------------------
# A8 - progress of a grouped query (future work 3): a hash aggregate is
# one more blocking segment, so the segment model extends unchanged

GROUP_SQL = """
select c.nationkey, count(*), avg(o.totalprice), max(o.totalprice)
from customer c, orders o
where c.custkey = o.custkey
group by c.nationkey
having count(*) > 10
order by c.nationkey
"""


def _aggregate_progress() -> dict[str, Any]:
    result = run_experiment("group-by", _tpcr(), GROUP_SQL)
    return {
        "aggregate_progress.txt": render_table(
            {
                "completed %": result.percent_series(),
                "remaining est (s)": result.remaining_series(),
                "remaining actual (s)": result.actual_remaining_series(),
            },
            title="Extension A8: progress of a grouped (GROUP BY/HAVING) query",
        ),
        "aggregate_progress.json": _experiment_doc(
            "aggregate_progress",
            result,
            {"scale": SCALE, "query": "group-by/having over customer-orders"},
        ),
    }


# ----------------------------------------------------------------------
# A9 - data skew vs the proportionality assumption of E2 = y/p (Section
# 4.5: "in practice, this assumption may not be valid")
#
# A scan with an unestimatable 10% predicate (the optimizer assumes 1/3)
# feeds a sort.  Uniform placement approaches the exact cost from above;
# front-loaded matches inflate early extrapolation (overshoot);
# back-loaded ones starve it (undershoot, later convergence).

SKEW_LAYOUT_SQL = "select v, pad from skew where mod(v, 10) = 0 order by v"
SKEW_LAYOUTS = ("uniform", "front", "back")


def _layout(layout: str) -> list[int]:
    values = list(range(SKEW_ROWS))
    if layout == "front":
        values.sort(key=lambda v: (v % 10 != 0, v))
    elif layout == "back":
        values.sort(key=lambda v: (v % 10 == 0, v))
    return values


def _ablation_skew() -> dict[str, Any]:
    lines = [
        "Ablation A9: qualifying-row placement vs the proportionality "
        "assumption",
        "(scan with unestimatable 10% predicate feeding a sort; the 1/3 "
        "default over-estimates, so every run starts high)",
        f"{'layout':<10} {'max over':>10} {'max under':>10} "
        f"{'converged (s)':>14} {'run (s)':>9}",
        "-" * 58,
    ]
    scalars = {}
    for layout in SKEW_LAYOUTS:
        r = run_experiment(layout, _skew_db(CONFIG, _layout(layout)), SKEW_LAYOUT_SQL)
        exact, cost = r.exact_cost_pages, r.estimated_cost_series()
        over = max(max(0.0, v - exact) / exact for _, v in cost)
        under = max(max(0.0, exact - v) / exact for _, v in cost)
        conv = metrics.convergence_time(cost, exact, 0.05)
        lines.append(
            f"{layout:<10} {over:>9.1%} {under:>9.1%} "
            f"{f'{conv:.0f}' if conv is not None else 'never':>14} "
            f"{r.total_elapsed:>9.0f}"
        )
        scalars |= {
            f"{layout}_max_overshoot": over,
            f"{layout}_max_undershoot": under,
            f"{layout}_convergence_s": conv,
            f"{layout}_elapsed_s": r.total_elapsed,
        }
    return {
        "ablation_skew.txt": "\n".join(lines),
        "ablation_skew.json": _doc(
            "ablation_skew",
            scalars=scalars,
            meta={"rows": SKEW_ROWS, "sql": SKEW_LAYOUT_SQL},
        ),
    }


# ----------------------------------------------------------------------
# Fault injection: estimator accuracy under a ~1% transient-fault
# schedule.  Retries and backoff stretch I/O; the speed monitor sees the
# slowdown as lower throughput and the indicator keeps tracking.  The
# disabled-injector overhead is real time: ``fault.hook_ratio`` in
# ``benchmarks/e2e/``.

FAULT_SCALE = 0.005
FAULTY_PLAN = FaultPlan(
    seed=42,
    transient_read_rate=0.01,
    transient_write_rate=0.005,
    max_repeat=2,
    retry=RetryPolicy(max_attempts=4),
)


def _q2_probe(db: Database) -> tuple[Any, float]:
    handle = db.connect().submit(queries.Q2, name="probe", keep_rows=False)
    result = handle.result()
    return result, _normalized_error(handle.log, result.elapsed)


def _fault_injection() -> dict[str, Any]:
    clean, clean_err = _q2_probe(_tpcr(scale=FAULT_SCALE))
    db = _tpcr(scale=FAULT_SCALE)
    injector = db.install_faults(FAULTY_PLAN)
    faulty, faulty_err = _q2_probe(db)
    injected = sum(injector.injected.values())  # noqa: REPRO112 - counts
    lines = [
        "Extension A7: fault injection, accuracy under faults (Q2)",
        f"  faults injected / retries      : {injected:>5} / {injector.retries}",
        f"  virtual clock, clean vs faulty : "
        f"{clean.elapsed:8.1f}s vs {faulty.elapsed:8.1f}s",
        "",
        f"  |err|/elapsed, fault-free      : {clean_err:8.3f}",
        f"  |err|/elapsed, under faults    : {faulty_err:8.3f}",
    ]
    return {
        "fault_injection.txt": "\n".join(lines),
        "fault_injection.json": _doc(
            "fault_injection",
            scalars={
                "faults_injected": injected,
                "retries": injector.retries,
                "gave_up": injector.gave_up,
                "clean_rows": clean.row_count,
                "faulty_rows": faulty.row_count,
                "clean_elapsed_s": clean.elapsed,
                "faulty_elapsed_s": faulty.elapsed,
                "clean_err": clean_err,
                "faulty_err": faulty_err,
            },
            meta={
                "scale": FAULT_SCALE,
                "query": "Q2",
                "transient_read_rate": FAULTY_PLAN.transient_read_rate,
                "transient_write_rate": FAULTY_PLAN.transient_write_rate,
            },
        ),
    }


# ----------------------------------------------------------------------
# Service saturation: degrade, don't die
#
# Each level submits N queries up front - two thirds light scans/joins
# with makeable deadlines, one third heavy three-way joins with tight
# ones - admission-bounded to 64 in flight, under seeded mild chaos.
# Shedding off vs on, same seed: the progress-driven shedding loop evicts
# queries predicted to miss their deadlines, so the capacity they would
# have burned goes to queries that can still make theirs.  The 1k level
# doubles as the invariant audit.  The gated real-time number for a
# flood is ``queries_per_s`` on ``service_flood`` in ``benchmarks/e2e/``.

SATURATION_SEED = 7
SATURATION_LEVELS = (100, 1_000, 10_000)
#: The scheduler's active set never exceeds this, however long the
#: admission queue.
MAX_INFLIGHT = 64
AUDIT_LEVEL = 1_000
LIGHT = (
    "select * from lineitem",
    "select * from customer",
    "select c.custkey, o.totalprice from customer c, orders o "
    "where c.custkey = o.custkey",
)
HEAVY = (
    "select c.custkey, o.totalprice, l.extendedprice "
    "from customer c, orders o, lineitem l "
    "where c.custkey = o.custkey and o.orderkey = l.orderkey"
)


def _saturation_faults() -> FaultPlan:
    """Faults perturb timing and force retries/evictions, but every query
    stays completable: failures would muddy the hit-rate comparison."""
    return FaultPlan(
        seed=SATURATION_SEED,
        transient_read_rate=0.008,
        transient_write_rate=0.004,
        max_repeat=1,
        slow_windows=(SlowDiskWindow(start=5.0, end=25.0, factor=2.5, period=60.0),),
        pressure_windows=(
            BufferPressureWindow(start=10.0, end=20.0, reserved_frames=8, period=50.0),
        ),
    )


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]


def saturation_level(level: int, shedding: bool, audit: bool = False) -> dict[str, Any]:
    """Flood the service with ``level`` submissions; outcome counts, the
    virtual p99 first-report latency, audit violations and a determinism
    signature (every submission's outcome plus the interleaving)."""
    config = SystemConfig(work_mem_pages=8, buffer_pool_pages=24).with_service(
        max_inflight=MAX_INFLIGHT,
        admission_queue_limit=2 * level,
        shedding=shedding,
        policy_interval=2.0,
        deprioritize_after=1,
        shed_after=2,
    )
    db = tpcr.build_database(scale=0.002, subset_rows=60, config=config)
    db.install_faults(_saturation_faults())
    service = db.service()
    retired: Counter[str] = Counter()
    if audit:
        inner = service.scheduler.on_retire

        def counting_retire(task: Any) -> None:
            retired[task.name] += 1
            inner(task)

        service.scheduler.on_retire = counting_retire

    # One seed for shedding on and off: the comparison isolates the policy.
    rng = random.Random(SATURATION_SEED)
    start_clock = db.clock.now
    handles = []
    for i in range(level):
        if i % 3 == 0:
            sql, timeout = HEAVY, rng.uniform(40.0, 90.0)
        else:
            sql, timeout = LIGHT[i % len(LIGHT)], rng.uniform(80.0, 250.0)
        handles.append(
            service.submit(sql, name=f"s{i}", keep_rows=False, timeout=timeout)
        )
    steps = 0
    while service.step() is not None:
        steps += 1
    vclock = db.clock.now - start_clock
    states = Counter(h.state for h in handles)
    latencies = [
        first - h.submitted_at
        for h in handles
        if (first := h.first_report_time()) is not None
    ]
    return {
        "level": level,
        "shedding": shedding,
        "hit_rate": states["finished"] / level,
        "failed": states["failed"],
        "shed": service.counters["shed"],
        "deprioritized": service.counters["deprioritized"],
        "qps_virtual": level / vclock,
        "p99_first_report_s": _p99(latencies),
        "violations": _audit(db, service, handles, retired) if audit else [],
        "signature": (tuple(h.state for h in handles), steps, round(vclock, 9)),
    }


def _audit(
    db: Database, service: Any, handles: list[Any], retired: Counter[str]
) -> list[str]:
    """Every admitted query retired exactly once, in one terminal state,
    with a finalized indicator and monotone reports; shared engine state
    (pins, temp files, tenant accounting) settled to zero."""
    violations = []
    admitted = [h for h in handles if h.task is not None]
    if sorted(retired) != sorted(h.name for h in admitted):
        violations.append("retired set != admitted set")
    violations += [
        f"{name}: retired {n} times" for name, n in retired.items() if n != 1
    ]
    for task in (h.task for h in admitted):
        if task.state not in DONE_STATES:
            violations.append(f"{task.name}: non-terminal {task.state}")
        if task.indicator is not None and not task.indicator.finalized:
            violations.append(f"{task.name}: indicator not finalized")
        if task.log is not None:
            done = [r.done_pages for r in task.log.reports]
            if any(b < a - 1e-9 for a, b in zip(done, done[1:])):
                violations.append(f"{task.name}: done_pages regressed")
    if service.inflight != 0:
        violations.append(f"inflight {service.inflight} != 0")
    violations += [
        f"tenant {t.name}: accounting leak"
        for t in service.tenants
        if t.inflight or t.inflight_cost_pages
    ]
    if db.buffer_pool.pinned_count != 0:
        violations.append(f"{db.buffer_pool.pinned_count} pages pinned")
    if db.disk.temp_file_count() != 0:
        violations.append(f"{db.disk.temp_file_count()} temp files leaked")
    return violations


def _saturation() -> dict[str, Any]:
    rows = [
        saturation_level(level, shedding, audit=shedding and level == AUDIT_LEVEL)
        for level in SATURATION_LEVELS
        for shedding in (False, True)
    ]
    lines = [
        "Extension A9: service saturation under seeded chaos "
        f"(seed {SATURATION_SEED}, max_inflight {MAX_INFLIGHT})",
        f"  {'in flight':>10} {'shedding':>9} {'hit rate':>9} "
        f"{'shed':>6} {'depri':>6} {'p99 first report':>17} {'q/s virt':>9}",
    ]
    for r in rows:
        lines.append(
            f"  {r['level']:>10} {'on' if r['shedding'] else 'off':>9} "
            f"{r['hit_rate']:>9.3f} {r['shed']:>6} {r['deprioritized']:>6} "
            f"{r['p99_first_report_s']:>15.1f} s {r['qps_virtual']:>9.2f}"
        )
    mode = {False: "off", True: "on"}
    plan = _saturation_faults()
    slow, pressure = plan.slow_windows[0], plan.pressure_windows[0]

    def by_level(shedding: bool, key: str) -> list[tuple[int, Any]]:
        return [(r["level"], r[key]) for r in rows if r["shedding"] == shedding]

    return {
        "saturation.txt": "\n".join(lines),
        "saturation.json": _doc(
            "saturation",
            series={
                "hit_rate_shed_off": by_level(False, "hit_rate"),
                "hit_rate_shed_on": by_level(True, "hit_rate"),
                "p99_first_report_s_off": by_level(False, "p99_first_report_s"),
                "p99_first_report_s_on": by_level(True, "p99_first_report_s"),
            },
            scalars={
                f"l{r['level']}_{mode[r['shedding']]}_{key}": r[key]
                for r in rows
                for key in (
                    "hit_rate", "qps_virtual", "p99_first_report_s",
                    "shed", "deprioritized", "failed",
                )
            },
            meta={
                "seed": SATURATION_SEED,
                "levels": list(SATURATION_LEVELS),
                "max_inflight": MAX_INFLIGHT,
                "audit_level": AUDIT_LEVEL,
                "audit_violations": next(
                    r["violations"]
                    for r in rows
                    if r["shedding"] and r["level"] == AUDIT_LEVEL
                ),
                "fault_plan": {
                    "transient_read_rate": plan.transient_read_rate,
                    "transient_write_rate": plan.transient_write_rate,
                    "max_repeat": plan.max_repeat,
                    "slow_window": [slow.start, slow.end, slow.factor, slow.period],
                    "pressure_window": [
                        pressure.start, pressure.end,
                        pressure.reserved_frames, pressure.period,
                    ],
                },
            },
        ),
    }


def _every_level(test: Callable[[Run, int], bool]) -> Claim:
    """A claim that holds at every saturation level."""
    return lambda r: all(test(r, n) for n in r.doc["meta"]["levels"])


# ----------------------------------------------------------------------
# L - the tier-1 accuracy leaderboard: 40 grid cells run once under
# ``paper``, every estimator and the selector scored by replaying the trace

TIER1_CELLS = 40
#: Ceilings on the headline errors: the values the committed board holds.
LEADERBOARD_CEILINGS = {
    "qerror_geomean": 1.089990923,
    "qerror_p95": 1.583333333,
    "progress_err_mean": 0.021011293,
    "progress_err_max": 0.219221677,
}


def _leaderboard() -> dict[str, Any]:
    board = run_leaderboard(resolve_grid("tier1"), "tier1")
    return {"leaderboard_tier1.json": leaderboard_doc(board)}


def _all_cells_scored(r: Run) -> bool:
    cells = r.doc["cells"]
    return len(cells) == r.doc["aggregates"]["cells_scored"] == TIER1_CELLS and all(
        c["scored"] for c in cells
    )


def _no_monotonicity_violation(r: Run) -> bool:
    return r.doc["aggregates"]["monotonicity_violations"] == 0 and not any(
        c["monotonicity_violations"] for c in r.doc["cells"]
    )


def _selector_no_worse_than_paper(r: Run) -> bool:
    """The selector's replayed stream does not lose to its own default."""
    paper = r.doc["estimators"]["paper"]
    return all(
        r.doc["aggregates"][m] <= paper[m] for m in ("qerror_geomean", "progress_err_mean")
    )


def _at_most(metric: str, ceiling: float) -> Claim:
    return lambda r: r.doc["aggregates"][metric] <= ceiling


LEADERBOARD_CLAIMS: dict[str, Claim] = {
    "all_40_cells_scored": _all_cells_scored,
    "no_monotonicity_violation": _no_monotonicity_violation,
    "selector_no_worse_than_paper": _selector_no_worse_than_paper,
    **{f"{m}_ceiling": _at_most(m, top) for m, top in LEADERBOARD_CEILINGS.items()},
}


# ----------------------------------------------------------------------
# The registry

ENTRIES: tuple[Experiment, ...] = (
    Experiment("table1_data_set", "Table 1 (§5.1)", _table1, TABLE1_CLAIMS),
    Experiment("q1_unloaded", "Fig 4-7 (§5.2)", _q1, Q1_CLAIMS, Q1_FIGURES),
    Experiment("q2_unloaded", "Fig 9-12 (§5.3.1)", _q2, Q2_CLAIMS, Q2_FIGURES),
    Experiment(
        "q2_io_interference", "Fig 13-16 (§5.3.2)", _q2_io, Q2_IO_CLAIMS, Q2_IO_FIGURES
    ),
    Experiment(
        "q3_correlation", "Fig 17 (§5.4)", _q3, Q3_CLAIMS, ("fig17_q3_cost.txt",)
    ),
    Experiment(
        "q4_two_errors", "Fig 18 (§5.5)", _q4, Q4_CLAIMS, ("fig18_q4_cost.txt",)
    ),
    Experiment(
        "q5_unloaded", "Fig 19 (§5.6.1)", _q5, Q5_CLAIMS, ("fig19_q5_remaining.txt",)
    ),
    Experiment(
        "q5_cpu_interference", "Fig 20 (§5.6.2)", _q5_cpu, Q5_CPU_CLAIMS,
        ("fig20_q5cpu_remaining.txt",),
    ),
    Experiment(
        "ablation_speed", "A1 (§4.6)", _ablation_speed,
        {
            # Adapting beats averaging forever.
            "window_beats_global_on_shift": lambda r: r["persistent_window_err_s"]
            < r["persistent_global_err_s"],
            "decay_beats_global_on_shift": lambda r: r["persistent_decay_err_s"]
            < r["persistent_global_err_s"],
        },
    ),
    Experiment(
        "ablation_refine", "A2 (§4.5)", _ablation_refine,
        {
            "learning_beats_never_learning": lambda r: r["uniform_paper_err_pages"]
            < r["uniform_optimizer_err_pages"],
            "extrapolation_exact_on_uniform_output": lambda r: (
                r["uniform_extrapolate_err_pages"] <= r["uniform_paper_err_pages"]
            ),
            # Raw extrapolation believes "no output so far -> no output ever".
            "smoothing_wins_on_skewed_output": lambda r: r["skewed_paper_err_pages"]
            < r["skewed_extrapolate_err_pages"],
        },
    ),
    Experiment(
        "sort_merge", "A3 (§4.5)", _sort_merge,
        {
            # Two run-generation sorts + the merge pipeline.
            "three_segments": lambda r: r.segments == 3,
            "percent_monotone_and_complete": _complete,
            "remaining_converges_late": lambda r: r.tracks_actual_from(
                0.7 * r.elapsed, 0.2 * r.elapsed + 5.0
            ),
        },
        ("sort_merge_remaining.txt",),
    ),
    Experiment(
        "ablation_window", "A4 (§4.6)", _ablation_window,
        # T = 120 reacts too slowly to the interference boundaries.
        {"t10_beats_t120": lambda r: r["t10_err_s"] < r["t120_err_s"]},
    ),
    Experiment(
        "concurrent_scheduler", "A5", _concurrent_scheduler,
        {
            "every_query_finishes_at_100_percent": lambda r: all(
                r[f"c{n}_finished"] == n for n in LEVELS
            ),
            "accuracy_within_2x_of_solo": _within_2x_of_solo,
        },
    ),
    Experiment(
        "concurrent_q1_remaining", "A5", _concurrent_q1,
        {
            "contention_stretches_the_scan": lambda r: r["concurrent_elapsed_s"]
            > 1.3 * r["solo_elapsed_s"],
            "observed_speed_drops": lambda r: r["concurrent_peak_speed_pages_per_s"]
            < r["solo_peak_speed_pages_per_s"],
            "indicator_tracks_actual": lambda r: r.indicator_error()
            < 0.35 * r["concurrent_elapsed_s"],
        },
    ),
    Experiment(
        "ablation_granularity", "A6", _ablation_granularity,
        {
            "tuple_beats_page_on_cpu_bound_q5": _tuple_beats_page,
            "granularity_barely_matters_on_io_bound_q1": lambda r: abs(
                _mean_error(r, "q1_tuple") - _mean_error(r, "q1_page")
            )
            < 5.0,
        },
    ),
    Experiment(
        "warm_cache", "A7 (§5.1)", _warm_cache,
        {
            # Base-table reads become pool hits; spill I/O is unaffected.
            "warm_run_faster": lambda r: r["warm_elapsed_s"]
            < 0.8 * r["cold_elapsed_s"],
            "same_initial_estimate": lambda r: math.isclose(
                r.series["warm_cost_pages"][0][1],
                r.series["cold_cost_pages"][0][1],
                rel_tol=0.05,
            ),
            "same_exact_cost": lambda r: math.isclose(
                r.series["warm_cost_pages"][-1][1], r.exact, rel_tol=0.02
            ),
            "warm_converges": _warm_converges,
        },
    ),
    Experiment(
        "aggregate_progress", "A8 (future work 3)", _aggregate_progress,
        {
            "aggregate_segment_present": lambda r: r.segments >= 3,
            "percent_monotone_and_complete": _complete,
            "remaining_tracks_late": lambda r: r.tracks_actual_from(
                0.6 * r.elapsed, 0.25 * r.elapsed + 5.0
            ),
        },
    ),
    Experiment(
        "ablation_skew", "A9 (§4.5)", _ablation_skew,
        {
            # Front-loaded matches push E past the already too-high E1.
            "front_loaded_overshoots": lambda r: r["front_max_overshoot"]
            > r["uniform_max_overshoot"] + 0.02,
            # E sinks below exact while no output arrives.
            "back_loaded_undershoots": lambda r: r["back_max_undershoot"]
            > r["uniform_max_undershoot"] + 0.02,
            # The E1 blend recovers (5% band).
            "every_layout_converges": lambda r: all(
                r[f"{layout}_convergence_s"] is not None for layout in SKEW_LAYOUTS
            ),
        },
    ),
    Experiment(
        "fault_injection", "fault layer", _fault_injection,
        {
            "faulty_run_recovers_every_row": lambda r: r["faulty_rows"]
            == r["clean_rows"],
            "faults_injected_none_gave_up": lambda r: r["faults_injected"] > 0
            and r["gave_up"] == 0,
            "retries_stretch_virtual_time": lambda r: r["faulty_elapsed_s"]
            > r["clean_elapsed_s"],
            # Floored: a near-perfect clean run makes a ratio unsatisfiable.
            "accuracy_bounded_under_faults": lambda r: r["faulty_err"]
            <= 3.0 * max(r["clean_err"], 0.10),
        },
    ),
    Experiment(
        "saturation", "service layer", _saturation,
        {
            "shedding_strictly_better_at_every_level": _every_level(
                lambda r, n: r[f"l{n}_on_hit_rate"] > r[f"l{n}_off_hit_rate"]
            ),
            # Chaos may slow queries but never kills one.
            "no_query_fails": _every_level(
                lambda r, n: r[f"l{n}_on_failed"] == r[f"l{n}_off_failed"] == 0
            ),
            # The policy evicts, not just demotes.
            "shedding_evicts_at_every_level": _every_level(
                lambda r, n: r[f"l{n}_on_shed"] > 0
            ),
            "audit_clean": lambda r: r.doc["meta"]["audit_violations"] == [],
        },
    ),
    Experiment(
        "leaderboard_tier1", "L (tier-1 grid)", _leaderboard,
        LEADERBOARD_CLAIMS, texts=(),
    ),
)

BY_NAME = {entry.name: entry for entry in ENTRIES}


# ----------------------------------------------------------------------
# Summary, check, write


def compute(entry: Experiment) -> dict[str, str]:
    """Every file ``entry`` owns, as the bytes it should hold."""
    contents = entry.run()
    if sorted(contents) != sorted(entry.files):
        raise RuntimeError(f"{entry.name} made {sorted(contents)}, owns {entry.files}")
    return {
        name: content + "\n"
        if isinstance(content, str)
        else json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
        for name, content in contents.items()
    }


def load(results_dir: pathlib.Path = RESULTS_DIR) -> dict[str, Any]:
    """Every registry document present in ``results_dir``, by entry name."""
    return {
        entry.name: json.loads(path.read_text())
        for entry in ENTRIES
        if (path := results_dir / f"{entry.name}.json").exists()
    }


def summary(results_dir: pathlib.Path = RESULTS_DIR) -> str:
    """The paper-vs-measured summary of the committed figure experiments."""
    docs = load(results_dir)
    lines = [
        f"Reproduction summary (scale {SCALE}, committed results)",
        "",
        f"{'experiment':<20} {'figures':<18} {'run (s)':>8} "
        f"{'init/exact cost':>16} {'conv (s)':>9} "
        f"{'err ind (s)':>12} {'err opt (s)':>12}",
        "-" * 100,
    ]
    for entry in ENTRIES:
        if not entry.anchor.startswith("Fig"):
            continue
        r = Run(docs[entry.name])
        conv = r.convergence()
        lines.append(
            f"{entry.name:<20} {entry.anchor:<18} {r.elapsed:>8.0f} "
            f"{r.cost[0][1] / r.exact:>15.0%} "
            f"{f'{conv:.0f}' if conv is not None else '-':>9} "
            f"{r.indicator_error():>12.1f} {r.optimizer_error():>12.1f}"
        )
    lines += [
        "",
        "init/exact cost: the optimizer's initial estimate over the exact",
        "  cost (100% = optimizer already right, as for Q1).",
        "conv: when the cost estimate reaches the exact value (2% band).",
        "err: mean |estimated - actual| remaining seconds — the refined",
        "  indicator vs the trivial optimizer-based one (dotted line).",
        f"{len(ENTRIES)} registry entries, "
        f"{sum(len(e.claims) for e in ENTRIES)} shape claims: "
        "`python -m repro reproduce --check` re-derives every file.",
    ]
    return "\n".join(lines)


def _first_difference(committed: Any, computed: Any, path: str = "") -> Optional[str]:
    """The first key (in sorted order) whose values differ, with both."""
    if isinstance(committed, dict) and isinstance(computed, dict):
        for key in sorted(committed.keys() | computed.keys()):
            where = f"{path}.{key}" if path else key
            if key not in committed or key not in computed:
                side = "committed" if key not in committed else "computed"
                return f"{where}: absent from the {side} file"
            found = _first_difference(committed[key], computed[key], where)
            if found:
                return found
        return None
    if isinstance(committed, list) and isinstance(computed, list):
        if len(committed) != len(computed):
            return (
                f"{path}: committed {len(committed)} items "
                f"!= computed {len(computed)}"
            )
        for i, (a, b) in enumerate(zip(committed, computed)):
            found = _first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(committed) is type(computed) and committed == computed:
        return None
    return f"{path}: committed {committed!r} != computed {computed!r}"


def _read(path: pathlib.Path) -> Optional[str]:
    return path.read_text() if path.exists() else None


def _describe_difference(name: str, committed: Optional[str], computed: str) -> str:
    """Where the committed file ``name`` and the computed bytes differ."""
    if committed is None:
        return f"{name}: not committed"
    if name.endswith(".json"):
        found = _first_difference(json.loads(committed), json.loads(computed))
        return f"{name}: {found or 'same values, different bytes'}"
    old, new = committed.splitlines(), computed.splitlines()
    for i, (a, b) in enumerate(itertools.zip_longest(old, new), 1):
        if a != b:
            return f"{name}: line {i}: committed {a!r} != computed {b!r}"
    return f"{name}: different line endings"


def check(
    results_dir: pathlib.Path = RESULTS_DIR,
    entries: Sequence[Experiment] = ENTRIES,
    out: Callable[[str], None] = print,
) -> int:
    """Recompute ``entries`` and compare each file byte for byte.

    Exit code: 0 all equal, 1 some file differs (each is named with its
    first differing key and both values).
    """
    stale = 0
    for entry in entries:
        differences = [
            _describe_difference(name, committed, text)
            for name, text in compute(entry).items()
            if (committed := _read(results_dir / name)) != text
        ]
        stale += len(differences)
        status = "STALE" if differences else "ok"
        out(f"{status:<6}{entry.name} ({len(entry.files)} files)")
        for difference in differences:
            out(f"      {difference}")
    total = sum(len(entry.files) for entry in entries)
    out(f"reproduce --check: {total - stale} of {total} files match")
    return 1 if stale else 0


def tally(
    results_dir: pathlib.Path = RESULTS_DIR,
    entries: Sequence[Experiment] = ENTRIES,
    changed: frozenset[str] = frozenset(),
) -> list[tuple[str, str, str]]:
    """(entry, claim, verdict) for every claim over the documents in
    ``results_dir``: held, moved (an owned file of the entry is in
    ``changed`` but the claim holds) or broken."""
    docs = load(results_dir)
    rows = []
    for entry in entries:
        moved = any(name in changed for name in entry.files)
        for claim, predicate in entry.claims.items():
            try:
                holds = bool(predicate(Run(docs[entry.name], docs)))
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                holds = False  # a document without what the claim reads
            verdict = "broken" if not holds else "moved" if moved else "held"
            rows.append((entry.name, claim, verdict))
    return rows


def report(rows: list[tuple[str, str, str]], out: Callable[[str], None] = print) -> int:
    """Print the per-claim verdicts and their tally; 1 if any is broken."""
    for entry, claim, verdict in rows:
        out(f"  {verdict:<7}{entry}: {claim}")
    counts = Counter(verdict for *_, verdict in rows)
    out("")
    out("| verdict | claims | share |")
    out("|---|---:|---:|")
    for verdict in ("held", "moved", "broken"):
        out(f"| {verdict} | {counts[verdict]} | {counts[verdict] / len(rows):.0%} |")
    return 1 if counts["broken"] else 0


def write(
    results_dir: pathlib.Path = RESULTS_DIR,
    entries: Sequence[Experiment] = ENTRIES,
    out: Callable[[str], None] = print,
) -> int:
    """Regenerate the files of ``entries``, then tally their claims."""
    changed = set()
    for entry in entries:
        for name, text in compute(entry).items():
            path = results_dir / name
            if _read(path) != text:
                path.write_text(text)
                changed.add(name)
                out(f"wrote {name}")
    out(f"reproduce --write: {len(changed)} files changed")
    return report(tally(results_dir, entries, frozenset(changed)), out)
