"""CLI for the fused engine's compile-once guard.

One subcommand::

    python -m repro.bench shapecheck [--statements N]

It runs N same-shape statements per template and mode, prints compiles
and cache hits of each, and fails if any fused program was compiled more
than once — the guard against a literal or ``id()`` in the plan-shape
key.  Real-time numbers come from ``python3 benchmarks/e2e/run.py``.
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
    failed = False
    for name, mode, compiles, hits in perf.shape_counts(args.statements):
        verdict = "FAIL" if compiles > 1 else "ok"
        failed |= compiles > 1
        print(f"{verdict}: {name} [{mode}]: {compiles} compiles, {hits} hits")
    print(f"shape gate: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
