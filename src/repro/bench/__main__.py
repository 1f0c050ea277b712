"""CLI for the compile-once and plan-once guards.

One subcommand::

    python -m repro.bench shapecheck [--statements N]

It runs N same-shape statements per template and mode, prints compiles
and cache hits of each, and fails if any fused program was compiled more
than once — the guard against a literal or ``id()`` in the plan-shape
key.  Then it submits one text of each template N times, runs
``analyze()`` and submits it N times more, and fails unless each round
planned the text exactly once — the guard on the statement cache's read
set.  It ends with the database's ``cache_info()``.  Real-time numbers
come from ``python3 benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import perf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="fused-engine compile-once guard",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    shape_p = subs.add_parser(
        "shapecheck", help="same-shape statements must compile once"
    )
    shape_p.add_argument(
        "--statements",
        type=int,
        default=50,
        help="statements per (template, mode) (default 50)",
    )

    args = parser.parse_args(argv)
    db = perf.shape_database()
    failed = False
    for name, mode, compiles, hits in perf.shape_counts(args.statements, db):
        verdict = "FAIL" if compiles > 1 else "ok"
        failed |= compiles > 1
        print(f"{verdict}: {name} [{mode}]: {compiles} compiles, {hits} hits")
    print(f"shape gate: {'FAIL' if failed else 'PASS'}")
    planned_once = True
    for name, plans, replans in perf.statement_counts(args.statements, db):
        ok = plans == 1 and replans == 1
        planned_once &= ok
        print(
            f"{'ok' if ok else 'FAIL'}: {name} [statement]: {plans} plans for "
            f"{args.statements} submissions, {replans} after analyze()"
        )
    print(f"statement gate: {'PASS' if planned_once else 'FAIL'}")
    print(f"cache_info: {db.cache_info()}")
    return 0 if planned_once and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
