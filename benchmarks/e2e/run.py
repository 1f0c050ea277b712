#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/e2e/run.py --seed 7            # every workload
    python3 benchmarks/e2e/run.py --seed 7 --trace 1  # the traced run
    python3 benchmarks/e2e/run.py --workload paper_solo --seed 7 \\
        --seconds 18 --trace 0                        # one workload, in-process
    python3 benchmarks/e2e/run.py --repeat 10         # ten seeds + spread table
    python3 benchmarks/e2e/run.py --compare A.json B.json

With ``--workload`` the process measures that workload itself and prints,
as its last line, one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Without it,
every workload runs in a fresh subprocess of its own - one thread,
nothing else running - and the results are written under
``benchmarks/e2e/results/``.  The metric names, units, directions and
bounds are declared in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
SCHEMA = "repro.e2e/1"


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "load_1min_start": os.getloadavg()[0],
    }


# ----------------------------------------------------------------------
# one workload, in this process


def run_workload(args, declaration: dict) -> int:
    # Tracing and the verification gate follow the config, not the caller's
    # shell: end-to-end numbers are measured with tracing off.
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_VERIFY", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import layers
        import measure
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the system under test: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment()
    started = time.perf_counter()
    expect = measure.run_oracle(workload, args.seed)
    checker = measure.Checker()
    detail: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace}

    if args.trace:
        kind = "per_layer"
        metrics, recorder = layers.run(
            workload, args.seed, args.seconds, expect, checker
        )
        RESULTS.mkdir(exist_ok=True)
        recorder.dump(RESULTS / f"trace_{workload.name}.json")
        detail["span_total_ms"] = {
            k: v / 1e6 for k, v in sorted(recorder.total_ns().items())
        }
        detail["span_self_ms"] = {
            k: v / 1e6 for k, v in sorted(recorder.self_ns().items())
        }
    else:
        kind = "end_to_end"
        dbs, setup_s = measure.setup(workload, args.seed)
        rounds = measure.run_rounds(
            workload, args.seed, dbs, expect, checker, args.seconds
        )
        metrics = measure.end_to_end(workload, rounds, setup_s)
        detail["rounds"] = len(rounds.monitored)
        detail["timed_s"] = rounds.timed_s
        detail["scored_ops"] = measure.accuracy(rounds.first_monitored)[2]
        detail["states"] = {
            s: rounds.first_monitored.states.count(s)
            for s in sorted(set(rounds.first_monitored.states))
        }
    detail["n_ops"] = len(workload.ops(args.seed))
    detail["wall_s"] = time.perf_counter() - started
    env["load_1min_end"] = os.getloadavg()[0]
    detail["env"] = env
    detail["problems"] = checker.messages

    declared = {m["name"]: m["unit"] for m in declaration[kind]}
    if set(declared) != set(metrics):
        print(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(metrics))}",
            file=sys.stderr,
        )
        return 2
    print(f"# {workload.name}  seed {args.seed}  {kind}")
    for name, unit in declared.items():
        print(f"{name:32s} {metrics[name]:>16.6g} {unit}")
    for message in checker.messages:
        print(f"! {message}")
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# every workload, one subprocess each


def run_all(args, declaration: dict) -> int:
    names = [w["name"] for w in declaration["workloads"]]
    started = time.perf_counter()
    doc = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "runs": [],
    }
    ok = True
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        run: dict = {"seed": seed, "workloads": {}}
        for name in names:
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-2]:
                print(line)
            if done.returncode != 0 or len(lines) < 2:
                print(f"! {name}: exit code {done.returncode}", file=sys.stderr)
                return done.returncode or 1
            result = json.loads(lines[-1])
            result["detail"] = json.loads(lines[-2].removeprefix("detail: "))
            print(
                f"  -> correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"wall={result['detail']['wall_s']:.1f}s\n"
            )
            ok = ok and result["correct"]
            run["workloads"][name] = result
        doc["runs"].append(run)
    doc["env"]["load_1min_end"] = os.getloadavg()[0]
    doc["env"]["total_wall_s"] = time.perf_counter() - started

    RESULTS.mkdir(exist_ok=True)
    out = pathlib.Path(args.out) if args.out else RESULTS / (
        "latest_layers.json" if args.trace else "latest.json"
    )
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"results written to {out} ({doc['env']['total_wall_s']:.0f}s)")
    if args.repeat >= 4 and not args.trace:
        import compare

        compare.print_spread(doc, declaration)
    if not ok:
        print("! some outputs were wrong (see lines marked '!')", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in declaration["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=declaration["run_seconds"],
        help="length of the timed phase of one workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs of every workload, on seeds SEED, SEED+1, ...",
    )
    parser.add_argument("--out", help="result file (default: results/latest*.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(args.compare[0], args.compare[1], declaration)
    if args.workload:
        return run_workload(args, declaration)
    sys.path.insert(0, str(HERE))
    return run_all(args, declaration)


if __name__ == "__main__":
    raise SystemExit(main())
