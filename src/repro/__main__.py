"""Command-line interface: ``python -m repro``.

Subcommands:

* ``demo`` — run one of the paper's queries (Q1–Q5) with a live progress
  display, optionally under I/O or CPU interference, and print the
  per-segment breakdown at the end.
* ``sql`` — run an arbitrary SQL statement against the generated TPC-R
  data set with progress monitoring.
* ``reproduce`` — the paper-vs-measured summary of the committed
  results; ``--check`` recomputes every table, figure and ablation of
  the experiment registry and compares it with the committed files,
  ``--write`` regenerates them and tallies every shape claim.

Examples::

    python -m repro demo --query Q2 --interference io
    python -m repro sql "select count(*) from lineitem" --scale 0.005
    python -m repro reproduce --check
"""

from __future__ import annotations

import argparse
import sys

from repro.config import SystemConfig
from repro.core.units import format_duration
from repro.planner.explain import explain
from repro.sim.load import LoadProfile
from repro.workloads import correlated, queries, tpcr


def _build_db(args, for_query: str | None = None):
    config = SystemConfig(work_mem_pages=args.work_mem)
    builder = correlated if for_query == "Q3" else tpcr
    return builder.build_database(scale=args.scale, config=config)


def _load_profile(kind: str):
    if kind == "io":
        return LoadProfile.file_copy(120.0, 400.0, slowdown=3.0)
    if kind == "cpu":
        return LoadProfile.cpu_hog(120.0, slowdown=2.5)
    return None


def cmd_demo(args) -> int:
    """Run one paper query with live progress and a segment breakdown."""
    name = args.query.upper()
    if name not in queries.PAPER_QUERIES:
        print(f"unknown query {args.query!r}; choose from Q1..Q5", file=sys.stderr)
        return 2
    db = _build_db(args, for_query=name)
    load = _load_profile(args.interference)
    if load is not None:
        db.set_load(load)

    planned = db.prepare(queries.PAPER_QUERIES[name])
    print(f"Plan for {name}:")
    print(explain(planned.root))
    print("\nRunning with progress indicator:\n")
    handle = db.connect().submit(
        planned,
        name=name,
        keep_rows=False,
        on_report=lambda r: print("  " + r.format_line()),
    )
    monitored = handle.monitored()
    print(
        f"\n{name} finished: {monitored.result.row_count} rows in "
        f"{format_duration(monitored.log.total_elapsed)} (virtual)."
    )
    print("\nSegment breakdown:")
    print(monitored.indicator.describe_segments())
    return 0


def cmd_sql(args) -> int:
    """Run arbitrary SQL against the generated data set, monitored."""
    db = _build_db(args)
    handle = db.connect().submit(
        args.statement,
        keep_rows=True,
        max_rows=args.max_rows,
        on_report=lambda r: print("  " + r.format_line()),
    )
    result = handle.result()
    print(f"\n{result.row_count} row(s); showing up to {args.max_rows}:")
    print("  " + " | ".join(result.names))
    for row in result.rows:
        print("  " + " | ".join(str(v) for v in row))
    return 0


def cmd_reproduce(args) -> int:
    """Summarize, check or regenerate the committed experiment results."""
    from repro.bench import experiments

    if args.check:
        return experiments.check()
    if args.write:
        return experiments.write()
    print(experiments.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Progress-indicator reproduction (SIGMOD 2004) CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scale", type=float, default=0.005,
                       help="TPC-R scale factor (default 0.005)")
        p.add_argument("--work-mem", type=int, default=24,
                       help="work_mem in pages (default 24)")

    demo = sub.add_parser("demo", help="run one of the paper's queries")
    demo.add_argument("--query", default="Q2", help="Q1..Q5 (default Q2)")
    demo.add_argument(
        "--interference", choices=["none", "io", "cpu"], default="none"
    )
    common(demo)
    demo.set_defaults(func=cmd_demo)

    sql = sub.add_parser("sql", help="run arbitrary SQL with monitoring")
    sql.add_argument("statement", help="a SELECT statement")
    sql.add_argument("--max-rows", type=int, default=20)
    common(sql)
    sql.set_defaults(func=cmd_sql)

    reproduce = sub.add_parser(
        "reproduce", help="summarize, check or regenerate the committed results"
    )
    mode = reproduce.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="recompute every experiment; exit 1 if a committed file differs",
    )
    mode.add_argument(
        "--write", action="store_true",
        help="regenerate the committed files; exit 1 if a shape claim breaks",
    )
    reproduce.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
