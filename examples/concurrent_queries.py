"""Concurrent queries and DBA load management (paper Section 6, use 1).

Three queries share one database — one virtual clock, one buffer pool —
through a single :class:`Session` and its cooperative scheduler.  Their
indicators observe *each other* as load — no synthetic interference
window needed.  Midway, the DBA consults the indicators, picks the query
with the most remaining work, and blocks it so the short queries finish
sooner; afterwards the victim is resumed and completes.

Run:  python examples/concurrent_queries.py
"""

from repro.config import SystemConfig
from repro.workloads import queries, tpcr


def main() -> None:
    db = tpcr.build_database(scale=0.005, config=SystemConfig(work_mem_pages=24))
    session = db.connect()
    handles = {
        name: session.submit(sql, name=name, keep_rows=False)
        for name, sql in [
            ("scan", queries.Q1),
            ("join", queries.Q2),
            ("nl", queries.Q5),
        ]
    }

    # Let everything interleave for a while (120 scheduler slices).
    for _ in range(120):
        if session.step() is None:
            break

    print(f"t={db.clock.now:7.1f}s  DBA checks the running queries:")
    running = {
        name: h.progress() for name, h in handles.items() if not h.done
    }
    for name, report in running.items():
        remaining = report.est_remaining_seconds
        print(
            f"   {name:<5} {report.percent_done:5.1f}% done, "
            f"~{remaining:7.1f}s left" if remaining is not None else
            f"   {name:<5} {report.percent_done:5.1f}% done (warming up)"
        )

    victim = max(
        running,
        key=lambda n: running[n].est_cost_pages - running[n].done_pages,
        default=None,
    )
    if victim is not None:
        print(f"\n   -> blocking {victim!r} (most remaining work)\n")
        session.scheduler.suspend(victim)

    # Run until every unblocked query completes.
    while session.step() is not None:
        pass

    for name, handle in handles.items():
        if handle.done:
            elapsed = handle.task.result.elapsed
            print(f"t={db.clock.now:7.1f}s  {name} finished in {elapsed:.1f}s")

    if victim is not None:
        print(f"\n   -> resuming {victim!r}")
        session.scheduler.resume(victim)
        session.run()
        elapsed = handles[victim].task.result.elapsed
        print(f"t={db.clock.now:7.1f}s  {victim} finished in {elapsed:.1f}s "
              "(including blocked time)")


if __name__ == "__main__":
    main()
