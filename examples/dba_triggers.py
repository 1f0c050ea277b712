"""Automatic administration and load management (paper Section 6).

Two of the paper's proposed uses of progress indicators beyond the UI:

1. **Triggers** — "send an email to the user if after a whole day's
   execution, the query finishes less than 10% of the work."  We install
   a (scaled-down) slow-progress trigger plus a stall alarm on a query
   running under heavy interference.
2. **Load management** — "a progress indicator can help the DBA choose
   which queries to block."  We monitor several queries, collect their
   latest reports, and rank blocking victims under two policies.

Run:  python examples/dba_triggers.py
"""

from repro.config import SystemConfig
from repro.core.triggers import (
    ProgressTrigger,
    TriggerSet,
    slow_progress_condition,
    stalled_condition,
)
from repro.sim.load import LoadProfile
from repro.workloads import queries, tpcr


def demo_triggers() -> None:
    print("=== 1. DBA triggers on a struggling query ===\n")
    db = tpcr.build_database(scale=0.005, config=SystemConfig(work_mem_pages=24))
    # Heavy interference for the whole run.
    db.set_load(LoadProfile.file_copy(30.0, 10_000.0, slowdown=6.0))

    def email_dba(report):
        print(
            f"  [trigger] t={report.elapsed:.0f}s: query only "
            f"{report.percent_done:.0f}% done — emailing the DBA"
        )

    def page_oncall(report):
        print(
            f"  [trigger] t={report.elapsed:.0f}s: speed collapsed to "
            f"{report.speed_pages_per_sec:.1f} U/s — paging on-call"
        )

    triggers = TriggerSet(
        [
            ProgressTrigger(
                "slow-progress",
                slow_progress_condition(max_fraction=0.5, after_seconds=120.0),
                email_dba,
            ),
            ProgressTrigger(
                "stalled",
                stalled_condition(min_speed_pages=2.0, after_seconds=60.0),
                page_oncall,
            ),
        ]
    )
    handle = db.connect().submit(
        queries.Q2, name="Q2", keep_rows=False, on_report=triggers
    )
    handle.result()
    fired = [t.name for t in triggers.triggers if t.fired]
    print(f"\n  query finished after {handle.log.total_elapsed:.0f}s; "
          f"triggers fired: {fired or 'none'}\n")


def demo_load_management() -> None:
    print("=== 2. Choosing queries to block ===\n")
    pool = {}
    for name, sql in [("Q1", queries.Q1), ("Q2", queries.Q2), ("Q5", queries.Q5)]:
        db = tpcr.build_database(scale=0.005, config=SystemConfig(work_mem_pages=24))
        handle = db.connect().submit(sql, name=name, keep_rows=False)
        handle.result()
        # Take each query's report from one third of the way through its
        # life — a snapshot of "currently running" state.
        pool[name] = handle.log.at(handle.log.total_elapsed / 3)

    print(f"  {'query':<6} {'done %':>8} {'est. remaining (s)':>20}")
    for name, report in pool.items():
        remaining = report.est_remaining_seconds
        print(
            f"  {name:<6} {report.percent_done:>8.1f} "
            f"{remaining if remaining is None else round(remaining, 1):>20}"
        )

    def remaining(name):  # no estimate yet counts as the longest
        estimate = pool[name].est_remaining_seconds
        return float("inf") if estimate is None else estimate

    by_remaining = max(pool, key=remaining)
    # Q2 is the query the DBA wants to speed up: never a victim.
    by_progress = min(
        (n for n in pool if n != "Q2"), key=lambda n: pool[n].fraction_done
    )
    print(f"\n  block by longest-remaining     : {by_remaining}")
    print(f"  block by least-progress (Q2 protected): {by_progress}")


if __name__ == "__main__":
    demo_triggers()
    demo_load_management()
