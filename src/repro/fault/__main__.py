"""CLI for the chaos harness: ``python -m repro.fault [seeds...]``.

Replays the paper's query suite under seeded fault schedules and checks
the robustness invariants (see :mod:`repro.fault.chaos`).  With no
arguments, runs the fixed CI seeds.  ``--random N`` appends N seeds
drawn from system entropy — each printed so a failing run can be
replayed exactly with ``python -m repro.fault <seed>``.

Exit status is the number of seeds with violations (0 = all invariants
held).
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.fault.chaos import CI_SEEDS, ChaosHarness


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fault",
        description="chaos-test the progress indicator under fault injection",
    )
    parser.add_argument(
        "seeds", nargs="*", type=int,
        help=f"fault-plan seeds to replay (default: {list(CI_SEEDS)})",
    )
    parser.add_argument(
        "--random", type=int, default=0, metavar="N",
        help="additionally run N seeds drawn from system entropy "
        "(each printed for reproduction)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.002,
        help="TPC-R scale factor for the test database (default 0.002)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=1, metavar="N",
        help="run N concurrent copies of the whole suite per seed, so "
        "overload and fault injection are exercised together (default 1)",
    )
    args = parser.parse_args(argv)
    if args.concurrency < 1:
        parser.error("--concurrency must be >= 1")

    seeds = list(args.seeds) if args.seeds else list(CI_SEEDS)
    for _ in range(args.random):
        fresh = random.SystemRandom().randrange(2**31)  # noqa: REPRO110 - a fresh seed on request, printed for replay
        print(f"random seed drawn: {fresh}  (replay: python -m repro.fault {fresh})")
        seeds.append(fresh)

    harness = ChaosHarness(scale=args.scale)
    failures = 0
    for seed in seeds:
        result = harness.run_seed(seed, concurrency=args.concurrency)
        print(result.summary())
        for violation in result.violations:
            print(f"  VIOLATION: {violation}")
        failures += 0 if result.ok else 1
    total = len(seeds)
    print(f"{total - failures}/{total} seeds clean")
    return failures


if __name__ == "__main__":
    sys.exit(main())
