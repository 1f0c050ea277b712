"""``python -m repro.obs`` — run, export, audit, and score from the CLI.

Subcommands:

* ``trace`` — run one monitored query (Q1–Q5 or ad-hoc ``--sql``) with
  tracing on, write the JSONL event log and the Chrome ``trace_event``
  JSON (open it in ``chrome://tracing`` or https://ui.perfetto.dev), and
  print the event census, span coverage, and per-segment span table.
* ``audit`` — score a trace (fresh run or ``--input trace.jsonl``): the
  per-report q-error table, the score card, then a row per estimator
  replayed from it (exit 1 without ground truth: ``not scored: ...``).
* ``metrics`` — run one monitored query and print the flat metrics dump.
* ``leaderboard`` — run the workload grid (tier-1 by default) once,
  replay and score every estimator over each trace, print the board;
  ``--out`` also saves the JSON.  The committed tier-1 board is checked
  by ``python -m repro reproduce --check``.

Examples::

    python -m repro.obs trace --query q1
    python -m repro.obs trace --sql "select count(*) from lineitem" --out /tmp/t
    python -m repro.obs audit --query q2 --interference io
    python -m repro.obs audit --input traces/q1.trace.jsonl
    python -m repro.obs metrics --query q5
    python -m repro.obs leaderboard --list
    python -m repro.obs leaderboard --grid tier1
    python -m repro.obs leaderboard --out /tmp/board.json
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.bus import TraceBus
from repro.obs.exporters import (
    read_jsonl,
    span_coverage,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsCollector, compute_spans, render_spans
from repro.obs.observatory.scoring import render_audit


def _build_database(query: Optional[str], scale: float, work_mem: int):
    """The workload database a paper query runs against (Q3 needs the
    correlated generator; everything else uses plain TPC-R)."""
    from repro.config import SystemConfig
    from repro.workloads import correlated, tpcr

    config = SystemConfig(work_mem_pages=work_mem)
    builder = correlated if query == "Q3" else tpcr
    return builder.build_database(scale=scale, config=config)


def _load_profile(kind: str):
    from repro.sim.load import LoadProfile

    if kind == "io":
        return LoadProfile.file_copy(120.0, 400.0, slowdown=3.0)
    if kind == "cpu":
        return LoadProfile.cpu_hog(120.0, slowdown=2.5)
    return None


def _resolve_sql(args: argparse.Namespace) -> Optional[tuple[str, str]]:
    """(name, sql) from --query/--sql; None (with message) on bad input."""
    from repro.workloads import queries

    if args.sql is not None:
        return ("adhoc", args.sql)
    name = args.query.upper()
    if name not in queries.PAPER_QUERIES:
        print(f"unknown query {args.query!r}; choose from Q1..Q5", file=sys.stderr)
        return None
    return (name, queries.PAPER_QUERIES[name])


def _run_traced(args: argparse.Namespace) -> Optional[tuple[str, TraceBus]]:
    """Run the selected query with a fresh TraceBus attached."""
    target = _resolve_sql(args)
    if target is None:
        return None
    name, sql = target
    db = _build_database(name, args.scale, args.work_mem)
    load = _load_profile(args.interference)
    if load is not None:
        db.set_load(load)
    trace = TraceBus()
    db.connect().submit(sql, name=name.lower(), trace=trace, keep_rows=False).result()
    return (name, trace)


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a query with tracing and export JSONL + Chrome trace."""
    run = _run_traced(args)
    if run is None:
        return 2
    name, trace = run
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = name.lower()

    jsonl_path = out_dir / f"{stem}.trace.jsonl"
    n = write_jsonl(trace.events, jsonl_path)
    chrome_path = out_dir / f"{stem}.trace.json"
    doc = write_chrome_trace(trace.events, chrome_path)
    coverage = span_coverage(doc)

    print(f"{name}: {n} events recorded")
    for kind, count in sorted(trace.counts().items()):
        print(f"  {kind:<22} {count:>6}")
    print(f"\nJSONL event log : {jsonl_path}")
    print(f"Chrome trace    : {chrome_path}  (open in chrome://tracing "
          "or https://ui.perfetto.dev)")
    print(f"span coverage   : {coverage * 100:.1f}% of the query's "
          "virtual duration")
    print("\nSegment spans (virtual time):")
    page_size = 8192
    print(render_spans(compute_spans(trace.events), page_size))
    return 0 if coverage >= 1.0 - 1e-9 else 1


def cmd_audit(args: argparse.Namespace) -> int:
    """Score a fresh run or a saved JSONL trace; 1 when it is not scored."""
    if args.input is not None:
        try:
            events = read_jsonl(args.input)
        except ValueError as exc:  # a malformed line or a removed kind
            print(f"{args.input}: {exc}", file=sys.stderr)
            return 2
        name = str(args.input)
    else:
        run = _run_traced(args)
        if run is None:
            return 2
        name, trace = run
        events = trace.events
    text, score = render_audit(events)
    print(f"Estimator-accuracy audit: {name}")
    print(text)
    return 0 if score.scored else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run a query with tracing and print the flat metrics dump."""
    run = _run_traced(args)
    if run is None:
        return 2
    name, trace = run
    registry = MetricsCollector().collect(trace.events)
    print(f"Metrics: {name}")
    print(registry.render())
    print("\nSegment spans (virtual time):")
    print(render_spans(compute_spans(trace.events), 8192))
    return 0


def cmd_leaderboard(args: argparse.Namespace) -> int:
    """Run and score the workload grid; save it only with ``--out``."""
    from repro.obs.observatory import (
        render_aggregates,
        run_leaderboard,
        write_leaderboard,
    )
    from repro.workloads.grid import resolve_grid

    try:
        variants = resolve_grid(args.grid)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.list:
        for v in variants:
            print(f"{v.name:<28} scale={v.scale:<6} {v.sql}")
        print(f"\n{len(variants)} variant(s) in grid {args.grid!r}")
        return 0

    echo = None if args.quiet else print
    board = run_leaderboard(variants, args.grid, echo=echo)
    if args.out is not None:
        write_leaderboard(board, args.out)
        print(f"\nleaderboard written: {args.out}")
    print(render_aggregates(board))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Tracing, metrics, accuracy audits, and the "
                    "workload-grid leaderboard",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--query", default="Q1", help="Q1..Q5 (default Q1)")
        p.add_argument("--sql", default=None,
                       help="trace an ad-hoc SELECT against the TPC-R data")
        p.add_argument("--scale", type=float, default=0.005,
                       help="TPC-R scale factor (default 0.005)")
        p.add_argument("--work-mem", type=int, default=24,
                       help="work_mem in pages (default 24)")
        p.add_argument("--interference", choices=["none", "io", "cpu"],
                       default="none")

    trace = sub.add_parser("trace", help="record a trace and export it")
    common(trace)
    trace.add_argument("--out", default="traces",
                       help="output directory (default: ./traces)")
    trace.set_defaults(func=cmd_trace)

    audit = sub.add_parser("audit", help="score one trace, report by report")
    common(audit)
    audit.add_argument("--input", default=None, metavar="TRACE_JSONL",
                       help="audit a saved JSONL trace instead of running")
    audit.set_defaults(func=cmd_audit)

    metrics = sub.add_parser("metrics", help="flat metrics dump for one run")
    common(metrics)
    metrics.set_defaults(func=cmd_metrics)

    board = sub.add_parser(
        "leaderboard",
        help="run + score the workload grid and print the board",
    )
    board.add_argument("--grid", choices=["tier1", "full"], default="tier1",
                       help="which variant set to run (default tier1)")
    board.add_argument("--out", default=None, metavar="JSON",
                       help="also save the board as JSON (default: print only)")
    board.add_argument("--list", action="store_true",
                       help="list the grid's variants and exit")
    board.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress lines")
    board.set_defaults(func=cmd_leaderboard)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # ``... | head``: end quietly, also at exit's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
