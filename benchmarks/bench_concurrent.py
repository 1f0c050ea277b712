"""EXP A5 — the cooperative scheduler: estimator accuracy under contention.

The paper models load with an external file copy / CPU hog.  This engine
produces contention organically: N queries interleave on one shared
virtual clock and buffer pool through :class:`CooperativeScheduler`, so
each query's indicator observes the others as load.  The measurement is
per-query estimator accuracy at concurrency 1, 4 and 16: every query
must reach 100%, and the mean |remaining-time error| relative to the
query's own run time must stay within 2x of the concurrency-1 baseline —
the speed monitor sees the contention, so the estimate keeps tracking
the actual line even in a busy mix.  Everything here is virtual time;
the scheduler's real-time cost at concurrency 1 is ``sched.solo_ratio``
in ``benchmarks/e2e/``.
"""

from __future__ import annotations

from common import experiment_config, run_once, write_bench_json

from repro.bench import metrics, render_table
from repro.core.indicator import ProgressIndicator
from repro.executor.base import ExecContext
from repro.executor.runtime import run_query
from repro.workloads import queries, tpcr

SCALE = 0.005
LEVELS = (1, 4, 16)
#: Submission rotation: scan-heavy and join-heavy queries mixed.
MIX = ("Q1", "Q2", "Q4")


def _db():
    return tpcr.build_database(scale=SCALE, config=experiment_config())


def _direct_monitored(db, sql):
    """The pre-scheduler monitored path: indicator + run_query, no slicing."""
    planned = db.prepare(sql)
    indicator = ProgressIndicator(planned, db.clock, db.config, label="direct")
    ctx = ExecContext(
        db.clock, db.disk, db.buffer_pool, db.config, tracker=indicator.tracker
    )
    result = run_query(planned, ctx, keep_rows=False)
    return result, indicator.finalize()


def _normalized_error(log, elapsed: float) -> float:
    """Mean |remaining-time error| as a fraction of the query's run time."""
    actual = [(t, max(0.0, elapsed - t)) for t, _ in log.remaining_series()]
    return metrics.mean_abs_error(log.remaining_series(), actual) / elapsed


#: Accuracy-audit floor: a perfectly predictable solo scan has error
#: ~0, which would make "within 2x of baseline" unsatisfiable for any
#: real contention; the floor is the solo error of the join queries.
ACCURACY_FLOOR = 0.125


def _run_level(n: int):
    """Run ``n`` concurrent monitored queries; return their tasks."""
    db = _db()
    session = db.connect()
    for i in range(n):
        session.submit(
            queries.PAPER_QUERIES[MIX[i % len(MIX)]],
            name=f"{MIX[i % len(MIX)].lower()}-{i + 1}",
            keep_rows=False,
        )
    return [h.task for h in session.run()]


def _solo_baselines():
    """Each mix query run alone (still scheduled): the accuracy baseline."""
    baselines = {}
    for qname in MIX:
        session = _db().connect()
        handle = session.submit(
            queries.PAPER_QUERIES[qname], name=qname, keep_rows=False
        )
        handle.result()
        baselines[qname] = _normalized_error(
            handle.log, handle.task.result.elapsed
        )
    return baselines


def _run_all():
    return {n: _run_level(n) for n in LEVELS}, _solo_baselines()


def test_scheduler_concurrency(benchmark, record_figure):
    per_level, baselines = run_once(benchmark, _run_all)

    accuracy = {}
    audited = []
    for n, tasks in per_level.items():
        errors = []
        for task in tasks:
            assert task.state == "finished", f"{task.name} ended {task.state}"
            final = task.log.final()
            assert final.fraction_done >= 1.0 - 1e-9, f"{task.name} stalled short"
            qname = task.name.split("-")[0].upper()
            err = _normalized_error(task.log, task.result.elapsed)
            errors.append(err)
            audited.append((n, task.name, qname, err))
        accuracy[n] = sum(errors) / len(errors)

    lines = [
        "Extension A5: cooperative scheduler, accuracy under contention",
        "  solo baselines (|err|/elapsed)  : "
        + "  ".join(f"{q}={e:.3f}" for q, e in baselines.items()),
        "",
        f"  {'concurrency':>12} {'slices':>8} {'clock (s)':>10} "
        f"{'mean |err|/elapsed':>20}",
    ]
    for n, tasks in per_level.items():
        slices = sum(len(t.slices) for t in tasks)
        clock = max(t.finished_at for t in tasks)
        lines.append(
            f"  {n:>12} {slices:>8} {clock:>10.1f} {accuracy[n]:>20.3f}"
        )
    record_figure("concurrent_scheduler", "\n".join(lines))
    write_bench_json(
        "concurrent_scheduler",
        scalars={f"solo_{q.lower()}_err": e for q, e in baselines.items()}
        | {f"c{n}_mean_err": accuracy[n] for n in per_level},
        meta={"scale": SCALE, "levels": list(LEVELS), "mix": list(MIX)},
    )

    # Per-query estimator accuracy stays within 2x of the same query's
    # single-query baseline (floored: see ACCURACY_FLOOR).
    for n, name, qname, err in audited:
        allowed = 2.0 * max(baselines[qname], ACCURACY_FLOOR)
        assert err <= allowed, (
            f"concurrency {n}, {name}: |err|/elapsed {err:.3f} > "
            f"{allowed:.3f} (solo {baselines[qname]:.3f})"
        )


def test_contention_emerges_without_interference(benchmark, record_figure):
    """Q1 alongside Q2: the interference-figure signature, no windows."""

    def _run():
        solo_db = _db()
        solo, solo_log = _direct_monitored(solo_db, queries.Q1)

        db = _db()
        session = db.connect()
        q1 = session.submit(queries.Q1, name="Q1", keep_rows=False)
        session.submit(queries.Q2, name="Q2", keep_rows=False)
        session.run()
        return solo, solo_log, q1.task

    solo, solo_log, q1 = run_once(benchmark, _run)

    record_figure(
        "concurrent_q1_remaining",
        render_table(
            {
                "indicator (s)": q1.log.remaining_series(),
                "actual (s)": [
                    (t, max(0.0, q1.result.elapsed - t))
                    for t, _ in q1.log.remaining_series()
                ],
            },
            title=(
                "Extension A5: Q1 remaining time while Q2 runs concurrently\n"
                f"(solo Q1: {solo.elapsed:.1f}s; "
                f"concurrent Q1: {q1.result.elapsed:.1f}s)"
            ),
        ),
    )

    write_bench_json(
        "concurrent_q1_remaining",
        series={
            "remaining_s": q1.log.remaining_series(),
            "actual_remaining_s": [
                (t, max(0.0, q1.result.elapsed - t))
                for t, _ in q1.log.remaining_series()
            ],
        },
        scalars={
            "solo_elapsed_s": solo.elapsed,
            "concurrent_elapsed_s": q1.result.elapsed,
        },
        meta={"scale": SCALE, "mix": ["Q1", "Q2"]},
    )

    # Contention stretches the scan.
    assert q1.result.elapsed > 1.3 * solo.elapsed
    # Observed speed under contention is lower than solo.
    solo_peak = max(v for _, v in solo_log.speed_series() if v is not None)
    loaded_peak = max(v for _, v in q1.log.speed_series() if v is not None)
    assert loaded_peak < solo_peak
    # The indicator still tracks the actual remaining time reasonably.
    err = metrics.mean_abs_error(
        q1.log.remaining_series(),
        [
            (t, max(0.0, q1.result.elapsed - t))
            for t, _ in q1.log.remaining_series()
        ],
    )
    assert err < 0.35 * q1.result.elapsed
