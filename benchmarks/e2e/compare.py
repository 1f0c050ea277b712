"""``run.py --compare A.json B.json``: did B get better, worse, or neither?

Both files are result documents of ``run.py`` (any ``--repeat``); runs
are paired by position, so run both sides on the same seeds.  For each
(end-to-end metric, workload) the verdict applies the metric's direction
and bound from ``BENCHMARK.json`` and the rule of the choosing-metrics
guide:

* **worse** - B's median is worse than A's by more than the bound;
* **better** - B wins at least nine tenths of the pairs (ties count for
  neither side) and the medians differ by more than A's own spread (the
  distance between its quartiles); with one run a side, B is better when
  it improves on A by more than the bound;
* **unresolved** - neither, and either side's spread is wider than the
  bound, so "no change" cannot be told from a change of that size;
* **same** - otherwise.

Exact counts - the per-layer metrics that must repeat bit-for-bit, and
the end-to-end metrics that are pure functions of the seed - are first
checked for equality pair by pair: two sets of runs of one commit must
agree on them to the last bit.
"""

from __future__ import annotations

import json
import statistics

import stats

#: Metrics that are pure functions of (commit, seed): two runs of the same
#: commit on the same seed must agree to the last bit.
EXACT = frozenset({
    # end to end
    "progress_accuracy", "remaining_qerror_geomean", "finished_share",
    "virtual_qps",
    # per layer
    "planner.rows_qerror", "core.reports_per_query", "storage.hit_rate",
    "storage.seq_reads", "storage.random_reads", "storage.writes",
    "sim.virtual_s", "obs.events_per_query", "sched.slices",
    "service.admitted", "service.queued", "service.shed",
    "service.deprioritized", "service.timed_out",
    "fault.injected", "fault.retries",
})


def load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != "repro.e2e/1":
        raise SystemExit(f"{path}: not a run.py result document")
    return doc


def series(doc: dict, workload: str, metric: str) -> list[float]:
    """The metric's value in every run of the document that has it."""
    out = []
    for run in doc["runs"]:
        result = run["workloads"].get(workload)
        if result and metric in result["metrics"]:
            out.append(result["metrics"][metric]["value"])
    return out


def spread(values: list[float]) -> float:
    """IQR as a share of the median; 0 when too few runs to tell."""
    return stats.iqr_share(values) if len(values) >= 4 else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = -1.0 if better == "higher" else 1.0  # > 0 means B is worse
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / abs(med_a)
    if change > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if len(pairs) >= 4:
        q1, _, q3 = statistics.quantiles(a, n=4)
        if (
            change < 0
            and wins >= 0.9 * (wins + losses)
            and abs(med_b - med_a) > q3 - q1
        ):
            return "better"
    elif change < -bound:
        return "better"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "same"


def main(path_a: str, path_b: str, declaration: dict) -> int:
    doc_a, doc_b = load(path_a), load(path_b)
    kind = "per_layer" if doc_a["trace"] else "end_to_end"
    if doc_a["trace"] != doc_b["trace"]:
        raise SystemExit("one document is a traced run, the other is not")
    workloads = [w["name"] for w in declaration["workloads"]]
    bad = 0
    print(f"{'metric':30s} {'workload':14s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for metric in declaration[kind]:
        name = metric["name"]
        for workload in workloads:
            a, b = series(doc_a, workload, name), series(doc_b, workload, name)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / abs(med_a) if med_a else 0.0
            equal = len(a) == len(b) and all(x == y for x, y in zip(a, b))
            if name in EXACT and equal:
                word, bound = "same", "exact"
            elif kind == "per_layer":
                # Layer timings carry no bound; a count that moved is shown.
                word, bound = ("DIFFERENT", "exact") if name in EXACT else ("-", "-")
                bad += name in EXACT
            else:
                word = verdict(a, b, metric["better"], metric["bound"])
                bound = f"{metric['bound']:.0%}"
                bad += word == "worse"
            print(f"{name:30s} {workload:14s} {med_a:12.5g} {med_b:12.5g} "
                  f"{change:+8.1%} {bound:>6s}  {word}")
    print(f"{bad} metric(s) worse or different" if bad else "no metric worse")
    return 1 if bad else 0


def print_spread(doc: dict, declaration: dict) -> None:
    """Run-to-run spread of every end-to-end metric against its bound."""
    print(f"\n{'metric':28s} {'workload':14s} {'median':>12s} {'IQR/median':>10s} "
          f"{'bound':>6s}")
    for metric in declaration["end_to_end"]:
        for workload in (w["name"] for w in declaration["workloads"]):
            values = series(doc, workload, metric["name"])
            share = spread(values)
            flag = "" if share <= metric["bound"] / 3 else (
                "  > bound/3" if share <= metric["bound"] else "  > BOUND"
            )
            print(f"{metric['name']:28s} {workload:14s} "
                  f"{statistics.median(values):12.5g} {share:10.2%} "
                  f"{metric['bound']:6.0%}{flag}")
