"""EXP A7 — warm buffer pool (paper Section 5.1, parenthetical).

"We repeated our experiments with a warm buffer pool.  The results were
similar, so we do not present them here."  We present them: Q2 run twice
without restarting — the second run hits the buffer pool, so it is much
faster in wall time, but the indicator's qualitative behaviour is
unchanged: the initial cost estimate is identical (cost in U does not
depend on caching), the estimate still ramps to the same exact value, and
the remaining-time estimate still converges — the speed monitor simply
observes a higher U/s.

Not a duplicate of ``benchmarks/e2e``: this is warm-vs-cold in *virtual*
seconds for EXPERIMENTS A7; the gated real-time cost of a cold pool is
``storage.cold_ratio`` there.
"""

from __future__ import annotations

import pytest
from common import SCALE, experiment_config, run_once, write_bench_json

from repro.bench import metrics, render_table, run_experiment
from repro.workloads import queries, tpcr


def _run():
    db = tpcr.build_database(scale=SCALE, config=experiment_config())
    cold = run_experiment("Q2-cold", db, queries.Q2)
    # No restart: the pool keeps the pages the first run read.
    warm = db.connect().submit(queries.Q2, name="Q2-warm", keep_rows=False).monitored()
    return cold, warm


def test_warm_buffer_pool(benchmark, record_figure):
    cold, warm_monitored = run_once(benchmark, _run)
    warm_log = warm_monitored.log

    record_figure(
        "warm_cache",
        render_table(
            {
                "cold cost (U)": cold.estimated_cost_series(),
                "warm cost (U)": warm_log.estimated_cost_series(),
            },
            title=(
                "Extension A7: Q2 estimated cost, cold vs warm buffer pool\n"
                f"(cold run {cold.total_elapsed:.0f}s, warm run "
                f"{warm_log.total_elapsed:.0f}s of virtual time)"
            ),
        ),
    )

    write_bench_json(
        "warm_cache",
        series={
            "cold_cost_pages": cold.estimated_cost_series(),
            "warm_cost_pages": warm_log.estimated_cost_series(),
        },
        scalars={
            "cold_elapsed_s": cold.total_elapsed,
            "warm_elapsed_s": warm_log.total_elapsed,
            "exact_cost_pages": cold.exact_cost_pages,
        },
        meta={"query": "Q2", "scale": SCALE},
    )

    # Warm run is faster in time (base-table reads become pool hits; the
    # spill-partition I/O of the multi-batch join is unaffected)...
    assert warm_log.total_elapsed < 0.8 * cold.total_elapsed
    # ...but the work and the estimates are the same U story.
    assert warm_log.reports[0].est_cost_pages == pytest.approx(
        cold.estimated_cost_series()[0][1], rel=0.05
    )
    assert warm_log.final().est_cost_pages == pytest.approx(
        cold.exact_cost_pages, rel=0.02
    )
    # The warm indicator converges to the exact cost too.
    converged = metrics.convergence_time(
        warm_log.estimated_cost_series(), warm_log.final().est_cost_pages, 0.02
    )
    assert converged is not None
