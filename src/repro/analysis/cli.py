"""``python -m repro.analysis`` / ``repro-analyze`` — the analysis CLI.

Subcommands:

* ``verify`` — plan the paper's built-in workload queries, three
  synthetic statements that cover the operators those plans skip and the
  ``shapecheck`` statement templates (or any SQL via ``--sql``), run the
  segment builder, check every plan/segment invariant, then compile each
  plan the two ways production does (monitored and plain) and check the
  generated program's text (:mod:`repro.analysis.generated`).  Exit code
  0 when all are clean, 1 otherwise.
* ``lint`` — run the repo-specific AST lint pass over files/directories
  (default ``src``): conventions, yield-point atomicity over the
  shared-state ownership registry, determinism.  A finding is suppressed
  by a ``noqa`` comment naming its rule on the reported line, reason
  mandatory; such a comment that matches nothing is itself a finding.
  Exit code 0 when no findings, 1 otherwise.

A path that does not exist, or a run that found no file to parse, exits 2:
a typo in a CI step must not be a green gate.

Examples::

    python -m repro.analysis verify --query Q2 --scale 0.01
    repro-analyze lint --rule REPRO004 src
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.generated import check_program
from repro.analysis.invariants import Violation, verify_plan
from repro.analysis.lint import iter_python_files, lint_paths
from repro.analysis.report import render_findings, render_violations
from repro.analysis.rules import LINT_RULES
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - keeps CLI import light
    from repro.core.segments import SegmentSpec
    from repro.database import Database
    from repro.planner.physical import PhysicalNode

#: Statements whose plans cover what Q1-Q5 skip at small scale: a fat-row
#: table makes a multi-leaf index *range* scan beat the sequential scan,
#: ORDER BY over 20k rows is an external sort at small work_mem, and with
#: hash join disabled an equi-join goes through the (unfused) merge join.
SYNTHETIC_STATEMENTS = {
    "index-range": "select k from wide where k >= 0 and k < 600",
    "external-sort": "select pad from big order by k desc",
    "merge-join": "select b.k from big b, small s where b.k = s.k",
    "mixed-order-sort": "select k, tag from tags order by tag desc, k",
}


def _synthetic_database(work_mem: int) -> "Database":
    """The instance :data:`SYNTHETIC_STATEMENTS` are planned against."""
    from repro.config import SystemConfig
    from repro.database import Database
    from repro.storage.schema import Column, Schema
    from repro.storage.types import INTEGER, string

    config = SystemConfig(work_mem_pages=work_mem).with_planner(
        enable_hashjoin=False
    )
    db = Database(config)
    db.create_table(
        "big",
        Schema([Column("k", INTEGER), Column("pad", string(60))]),
        [(i, "x" * 50) for i in range(20_000)],
    )
    db.create_table(
        "small",
        Schema([Column("k", INTEGER), Column("v", INTEGER)]),
        [(i * 7 % 500, i) for i in range(500)],
    )
    db.create_table(
        "wide",
        Schema([Column("k", INTEGER), Column("pad", string(1400))]),
        [(i, "x" * 1400) for i in range(15_000)],
    )
    db.create_table(
        "tags",
        Schema([Column("k", INTEGER), Column("tag", string(12))]),
        [(i % 97, None if i % 5 == 0 else f"t{i % 13}") for i in range(2_000)],
    )
    db.analyze()
    db.create_index("big", "k")
    db.create_index("wide", "k")
    return db


def _instance(name: str) -> str:
    """Which database target ``name`` is planned against: the synthetic one,
    the correlated generator for Q3, TPC-R with the ``shapecheck`` indexes
    for its templates, plain TPC-R for everything else."""
    from repro.bench.perf import SHAPE_TEMPLATES

    if name in SYNTHETIC_STATEMENTS:
        return "synthetic"
    if name == "Q3":
        return "correlated"
    return "indexed" if name in SHAPE_TEMPLATES else "tpcr"


def _build_database(instance: str, scale: float, work_mem: int) -> "Database":
    """Build one :func:`_instance` database."""
    from repro.config import SystemConfig
    from repro.workloads import correlated, tpcr

    if instance == "synthetic":
        return _synthetic_database(work_mem)
    config = SystemConfig(work_mem_pages=work_mem)
    if instance == "correlated":
        return correlated.build_database(scale=scale, config=config)
    return tpcr.build_database(
        scale=scale, config=config, with_indexes=instance == "indexed"
    )


def check_compiled(
    root: "PhysicalNode", specs: "list[SegmentSpec]", db: "Database"
) -> list[Violation]:
    """Compile ``root`` the two ways production does — with a tracker and
    without — and check both generated programs' text."""
    from repro.analysis.invariants import collect_nodes
    from repro.executor.base import ExecContext
    from repro.executor.fused import _SAFE_LITERALS, FusedQuery
    from repro.executor.work import WorkTracker
    from repro.expr.bound import BoundExpr, InSubqueryExpr, LiteralExpr

    # The two shapes the compiler keeps as closures: an IN-subquery, a
    # literal outside _SAFE_LITERALS (found anywhere under any plan node).
    seen: list = collect_nodes(root)
    for item in seen:  # grows as it is walked
        for value in vars(item).values():
            parts = value if isinstance(value, list) else [value]
            seen += [v for v in parts if isinstance(v, BoundExpr)]
    closures = any(
        isinstance(e, InSubqueryExpr)
        or (isinstance(e, LiteralExpr)
            and type(e.value) not in (*_SAFE_LITERALS, type(None)))
        for e in seen
    )
    out: list[Violation] = []
    for monitored in (True, False):
        tracker = None
        if monitored:
            inputs = [len(s.inputs) for s in specs]
            tracker = WorkTracker(inputs, specs[-1].id, db.clock)
        ctx = ExecContext(
            db.clock, db.disk, db.buffer_pool, db.config, tracker=tracker
        )
        query = FusedQuery(root, ctx)
        query.close()
        out.extend(check_program(query.source, monitored, closures))
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify the built-in workloads' plans (or ad-hoc SQL)."""
    from repro.bench.perf import SHAPE_TEMPLATES
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
        # One statement per shapecheck template: the short-query shapes
        # (the two joins spill under ``--work-mem 1``).
        shapes = {k: t.format(n=1) for k, t in SHAPE_TEMPLATES.items()}
        targets = {**queries.PAPER_QUERIES, **SYNTHETIC_STATEMENTS, **shapes}

    # Planning and compiling leave a database as built: one per instance.
    databases: dict[str, "Database"] = {}
    results: dict[str, list[Violation]] = {}
    for name, sql in targets.items():
        instance = _instance(name)
        if instance not in databases:
            databases[instance] = _build_database(instance, args.scale, args.work_mem)
        db = databases[instance]
        try:
            planned = db.prepare(sql)
        except ReproError as exc:
            print(f"{name}: cannot plan: {exc}", file=sys.stderr)
            return 2
        specs, violations = verify_plan(planned.root)
        results[name] = violations + check_compiled(planned.root, specs, db)
    print(render_violations(results))
    total = sum(len(v) for v in results.values())
    if total:
        print(f"\n{total} violation(s) across {len(results)} plan(s)")
        return 1
    print(f"\nall {len(results)} plan(s) verified")
    return 0


def _no_input(what: str, paths: Sequence[str], parsed: int) -> bool:
    """True, having said why on stderr, when a run has nothing to look at."""
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"{what}: no such path: {', '.join(missing)}", file=sys.stderr)
    elif not parsed:
        print(f"{what}: no .py file under {', '.join(paths)}", file=sys.stderr)
    return bool(missing) or not parsed


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
    files = iter_python_files(args.paths)
    if _no_input("lint", args.paths, len(files)):
        return 2
    findings = lint_paths(files, rules=rules)
    print(render_findings(findings))
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Static analysis: plan and generated-program verifier, "
        "AST lint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify plan/segment invariants")
    verify.add_argument("--query", default=None,
                        help="one paper query (Q1..Q5); default: all, plus "
                        "the synthetic operator-coverage statements and the "
                        "shapecheck templates")
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
