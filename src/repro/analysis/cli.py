"""``python -m repro.analysis`` / ``repro-analyze`` — the analysis CLI.

Subcommands:

* ``verify`` — plan the paper's built-in workload queries (Q1-Q5 by
  default, or any SQL via ``--sql``), run the segment builder, and check
  every plan/segment invariant.  Exit code 0 when all plans are clean,
  1 otherwise.
* ``lint`` — run the repo-specific AST lint pass over files/directories
  (default ``src``).  Exit code 0 when no findings, 1 otherwise.
* ``races`` — interprocedural yield-point atomicity analysis (REPRO10x):
  shared-state writes outside owner methods, read-modify-write spans
  crossing a suspension point.  ``--strict`` fails on any finding not
  covered by the committed baseline (and on stale baseline entries).
* ``effects`` — determinism-effect checker (REPRO11x): functions in the
  engine core that reach a nondeterminism source (wall clock, unseeded
  random, environment, ...).  Same ``--strict`` / baseline contract.
* ``crosscheck`` — validate the static may-yield summaries against
  pulses observed in a real run (or a recorded JSONL trace): a class
  observed originating pulses must be statically an originator.

Examples::

    python -m repro.analysis verify --query Q2 --scale 0.01
    repro-analyze lint --rule REPRO004 src
    repro-analyze races --strict
    repro-analyze effects --update-baseline
    repro-analyze crosscheck --strict
    repro-analyze crosscheck --record traces/q5.jsonl --query Q5
    repro-analyze crosscheck --trace traces/q5.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.invariants import Violation, verify_plan
from repro.analysis.lint import lint_paths
from repro.analysis.report import render_findings, render_violations
from repro.analysis.rules import LINT_RULES
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - keeps CLI import light
    from repro.analysis.flow.findings import FlowFinding
    from repro.database import Database


def _build_database(query: str, scale: float, work_mem: int) -> "Database":
    """The workload database a paper query runs against (Q3 needs the
    correlated generator; everything else uses plain TPC-R)."""
    from repro.config import SystemConfig
    from repro.workloads import correlated, tpcr

    config = SystemConfig(work_mem_pages=work_mem)
    builder = correlated if query == "Q3" else tpcr
    return builder.build_database(scale=scale, config=config)


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify the built-in workloads' plans (or ad-hoc SQL)."""
    from repro.workloads import queries

    if args.sql is not None:
        targets = {"sql": args.sql}
    elif args.query is not None:
        name = args.query.upper()
        if name not in queries.PAPER_QUERIES:
            print(f"unknown query {args.query!r}; choose from Q1..Q5",
                  file=sys.stderr)
            return 2
        targets = {name: queries.PAPER_QUERIES[name]}
    else:
        targets = dict(queries.PAPER_QUERIES)

    results: dict[str, list[Violation]] = {}
    for name, sql in targets.items():
        db = _build_database(name, args.scale, args.work_mem)
        try:
            planned = db.prepare(sql)
        except ReproError as exc:
            print(f"{name}: cannot plan: {exc}", file=sys.stderr)
            return 2
        _specs, violations = verify_plan(planned.root)
        results[name] = violations
    print(render_violations(results))
    total = sum(len(v) for v in results.values())
    if total:
        print(f"\n{total} violation(s) across {len(results)} plan(s)")
        return 1
    print(f"\nall {len(results)} plan(s) verified")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Lint files/directories with the repo-specific rules."""
    rules = set(args.rule) if args.rule else None
    if rules is not None:
        unknown = rules - set(LINT_RULES)
        if unknown:
            print(
                f"unknown rule(s): {', '.join(sorted(unknown))}; "
                f"available: {', '.join(sorted(LINT_RULES))}",
                file=sys.stderr,
            )
            return 2
    findings = lint_paths(args.paths, rules=rules)
    print(render_findings(findings))
    return 1 if findings else 0


def _run_flow_analysis(args: argparse.Namespace, which: str) -> int:
    """Shared body of ``races`` and ``effects``: build the call graph,
    run the pass, apply the baseline, render."""
    from repro.analysis.flow import (
        analyze_effects,
        analyze_races,
        build_callgraph,
        find_repo_root,
    )
    from repro.analysis.flow.baseline import (
        BASELINE_FILENAME,
        Baseline,
        update_baseline,
    )
    from repro.analysis.flow.findings import render_flow_findings

    repo_root = find_repo_root()
    package_dir = Path(args.package) if args.package else None
    if package_dir is None:
        import repro

        package_dir = Path(repro.__file__).resolve().parent
    graph = build_callgraph(package_dir)
    root_for_paths = repo_root or Path.cwd()
    analyzer = analyze_races if which == "races" else analyze_effects
    findings: "list[FlowFinding]" = analyzer(graph, root_for_paths)

    baseline_path: Optional[Path] = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    elif repo_root is not None and (repo_root / BASELINE_FILENAME).is_file():
        baseline_path = repo_root / BASELINE_FILENAME

    if getattr(args, "update_baseline", False):
        target = baseline_path or (
            (repo_root or Path.cwd()) / BASELINE_FILENAME
        )
        previous = Baseline.load(target) if target.is_file() else None
        # Keep the other pass's suppressions: merge by re-reading and only
        # replacing entries whose rule family this pass owns.
        own_prefix = "REPRO10" if which == "races" else "REPRO11"
        kept = [
            e
            for e in (previous.entries if previous else [])
            if not e.rule.startswith(own_prefix)
        ]
        n = update_baseline(findings, target, previous)
        if kept:
            import json as _json

            doc = _json.loads(target.read_text(encoding="utf-8"))
            for e in kept:
                doc["suppressions"].append(
                    {
                        "rule": e.rule,
                        "path": e.path,
                        "function": e.function,
                        "count": e.count,
                        "justification": e.justification,
                    }
                )
            doc["suppressions"].sort(
                key=lambda s: (s["rule"], s["path"], s["function"])
            )
            target.write_text(
                _json.dumps(doc, indent=2) + "\n", encoding="utf-8"
            )
            n = len(doc["suppressions"])
        print(f"wrote {n} suppression(s) to {target}")
        return 0

    baseline = (
        Baseline.load(baseline_path)
        if baseline_path is not None and baseline_path.is_file()
        else Baseline.empty()
    )
    unsuppressed, suppressed, stale = baseline.filter(findings)
    print(render_flow_findings(unsuppressed))
    if suppressed:
        print(f"({len(suppressed)} finding(s) suppressed by baseline)")
    failed = bool(unsuppressed)
    if args.strict:
        for entry in stale:
            # Only police entries this pass can re-derive.
            own_prefix = "REPRO10" if which == "races" else "REPRO11"
            if entry.rule.startswith(own_prefix):
                print(
                    f"stale baseline entry: {entry.rule} {entry.path} "
                    f"[{entry.function}] matches nothing — remove it"
                )
                failed = True
    return 1 if failed else 0


def cmd_races(args: argparse.Namespace) -> int:
    """Yield-point atomicity analysis (REPRO10x)."""
    return _run_flow_analysis(args, "races")


def cmd_effects(args: argparse.Namespace) -> int:
    """Determinism-effect analysis (REPRO11x)."""
    return _run_flow_analysis(args, "effects")


def cmd_crosscheck(args: argparse.Namespace) -> int:
    """Validate static may-yield summaries against observed pulses."""
    from repro.analysis.flow import crosscheck as cc

    if args.record is not None:
        n = cc.record_trace(
            args.record,
            query=(args.query or "Q5").upper(),
            scale=args.scale,
            work_mem=args.work_mem,
        )
        print(f"recorded {n} probe event(s) to {args.record}")
        return 0
    if args.trace is not None:
        report = cc.check_trace(args.trace, strict_complete=False)
    else:
        queries = [q.upper() for q in args.query.split(",")] if args.query else None
        report = cc.run_crosscheck(
            queries=queries,
            scale=args.scale,
            work_mem=args.work_mem,
            strict_complete=args.strict,
            synthetic=args.query is None,
        )
    print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Static analysis: plan invariant verifier + AST lint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify plan/segment invariants")
    verify.add_argument("--query", default=None,
                        help="one paper query (Q1..Q5); default: all")
    verify.add_argument("--sql", default=None,
                        help="verify an ad-hoc SELECT against the TPC-R data")
    verify.add_argument("--scale", type=float, default=0.005,
                        help="TPC-R scale factor (default 0.005)")
    verify.add_argument("--work-mem", type=int, default=24,
                        help="work_mem in pages (default 24; small values "
                        "force multi-batch joins and external sorts)")
    verify.set_defaults(func=cmd_verify)

    lint = sub.add_parser("lint", help="run the repo-specific AST lint pass")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories (default: src)")
    lint.add_argument("--rule", action="append", default=None,
                      metavar="REPROxxx",
                      help="restrict to one rule id (repeatable)")
    lint.set_defaults(func=cmd_lint)

    def _flow_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--package", default=None,
                       help="package directory to analyze "
                       "(default: the installed repro package)")
        p.add_argument("--baseline", default=None,
                       help="baseline file (default: analysis-baseline.json "
                       "at the repo root, when present)")
        p.add_argument("--strict", action="store_true",
                       help="also fail on stale baseline entries")
        p.add_argument("--update-baseline", action="store_true",
                       help="rewrite the baseline to cover current findings "
                       "(preserving existing justifications)")

    races = sub.add_parser(
        "races",
        help="interprocedural yield-point atomicity analysis (REPRO10x)",
    )
    _flow_args(races)
    races.set_defaults(func=cmd_races)

    effects = sub.add_parser(
        "effects",
        help="determinism-effect analysis for the engine core (REPRO11x)",
    )
    _flow_args(effects)
    effects.set_defaults(func=cmd_effects)

    crosscheck = sub.add_parser(
        "crosscheck",
        help="validate static may-yield summaries against observed pulses",
    )
    crosscheck.add_argument("--query", default=None,
                            help="paper queries to run, comma-separated "
                            "(default: Q1..Q5 plus synthetic coverage "
                            "queries)")
    crosscheck.add_argument("--scale", type=float, default=0.005,
                            help="TPC-R scale factor (default 0.005)")
    crosscheck.add_argument("--work-mem", type=int, default=4,
                            help="work_mem in pages (default 4; small values "
                            "force spilling joins and external sorts)")
    crosscheck.add_argument("--strict", action="store_true",
                            help="also fail when a static originator was "
                            "instantiated but never observed originating")
    crosscheck.add_argument("--record", default=None, metavar="PATH",
                            help="record one query's probe events to a JSONL "
                            "trace instead of validating")
    crosscheck.add_argument("--trace", default=None, metavar="PATH",
                            help="validate a previously recorded JSONL trace "
                            "instead of running queries")
    crosscheck.set_defaults(func=cmd_crosscheck)
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
