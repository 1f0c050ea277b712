"""EXP A2 — refinement-formula ablation (paper Section 4.5).

The paper's estimator is ``E = p*E2 + (1-p)*E1``, a heuristic "to smooth
fluctuations in the estimator".  Two workloads expose the trade-off:

* **Uniform output (Q2)** — the lineitem predicate passes every row, so
  outputs arrive proportionally to the dominant input and raw
  extrapolation (``E2 = y/p``) is exact almost immediately.  Here the
  smoothing *costs* accuracy (it keeps blending in the wrong E1), and
  never learning at all ("optimizer") is worst.
* **Skewed output** — all qualifying rows sit at the tail of the scanned
  relation, so ``y = 0`` for most of the scan and raw E2 collapses to 0,
  wildly underestimating the sort above it.  The paper's smoothed formula
  stays anchored near E1 and wins.

This is exactly why the paper blends the two estimates rather than using
either alone.
"""

from __future__ import annotations

from common import SCALE, experiment_config, run_once, write_bench_json

from repro.bench import run_experiment
from repro.database import Database
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string
from repro.workloads import queries, tpcr

#: Printed mode label -> registered estimator implementing that rule.
MODES = {"paper": "paper", "optimizer": "tgn", "extrapolate": "dne"}

#: Skewed workload: rows stored in increasing v order; the filter matches
#: only the top ~8%, i.e. nothing until the scan's tail.  The ORDER BY
#: puts a sort (a counted segment output) above the filter, so the output
#: estimate matters to the cost.
SKEW_ROWS = 30_000
SKEW_SQL = f"select v, pad from skew where v >= {int(SKEW_ROWS * 0.92)} order by v"


def _skew_db(mode: str) -> Database:
    config = experiment_config().with_progress(estimator=MODES[mode])
    db = Database(config=config)
    db.create_table(
        "skew",
        Schema([Column("v", INTEGER), Column("pad", string(60))]),
        ((i, "x" * 48) for i in range(SKEW_ROWS)),
    )
    db.analyze()
    return db


def _run_all():
    uniform = {}
    skewed = {}
    for mode in MODES:
        config = experiment_config().with_progress(estimator=MODES[mode])
        db = tpcr.build_database(scale=SCALE, config=config)
        uniform[mode] = run_experiment(f"Q2-{mode}", db, queries.Q2)
        skewed[mode] = run_experiment(f"skew-{mode}", _skew_db(mode), SKEW_SQL)
    return uniform, skewed


def _cost_error(result):
    exact = result.exact_cost_pages
    points = [abs(v - exact) for _, v in result.estimated_cost_series()]
    return sum(points) / len(points)


def test_ablation_refinement_formula(benchmark, record_figure):
    uniform, skewed = run_once(benchmark, _run_all)
    uniform_err = {m: _cost_error(r) for m, r in uniform.items()}
    skewed_err = {m: _cost_error(r) for m, r in skewed.items()}

    lines = [
        "Ablation A2: output-cardinality refinement formula",
        "(mean |estimated cost - exact| in U, lower is better)",
        f"{'mode':<14} {'uniform (Q2)':>14} {'skewed tail':>14}",
        "-" * 46,
    ]
    for mode in MODES:
        lines.append(
            f"{mode:<14} {uniform_err[mode]:>14.1f} {skewed_err[mode]:>14.1f}"
        )
    record_figure("ablation_refine", "\n".join(lines))
    write_bench_json(
        "ablation_refine",
        scalars={f"uniform_{m}_err_pages": uniform_err[m] for m in MODES}
        | {f"skewed_{m}_err_pages": skewed_err[m] for m in MODES},
        meta={"scale": SCALE, "modes": list(MODES), "skew_rows": SKEW_ROWS},
    )

    # Learning from observed outputs beats never learning (both loads).
    assert uniform_err["paper"] < uniform_err["optimizer"]
    # Uniform output: raw extrapolation is hard to beat (it is exact).
    assert uniform_err["extrapolate"] <= uniform_err["paper"]
    # Skewed output: the paper's smoothing beats raw extrapolation, which
    # believes "no output so far -> no output ever".
    assert skewed_err["paper"] < skewed_err["extrapolate"]
