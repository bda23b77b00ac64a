"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files come from `sweep.py`. Runs are paired by workload and seed, in
the order they were recorded. For every workload and end-to-end metric of
BENCHMARK.json the tool prints each side's median and quartiles, the
fraction of pairs the change wins, and a verdict:

- better: the change wins at least nine tenths of at least ten pairs (ties
  count for neither side), and the medians differ by more than the parent's
  quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (a share of the parent's median);
- unresolved: neither, and the run-to-run spread of either side (quartile
  distance over median) is wider than the bound, unless every run of the
  change reads better than every run of the parent;
- unchanged: otherwise.

It also reports, per workload, whether the answer digests of paired runs
are identical.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, win fraction) for paired runs of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and win_frac >= WIN_SHARE_FOR_GAIN
            and sign * (cm - pm) > p3 - p1):
        return "better", win_frac
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", win_frac
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not every_run_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if not rec.get("trace"):
                    by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> list[str]:
    lines = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            lines.append(f"{workload}: missing from one of the result sets")
            continue
        seeds = [r["seed"] for r in parent[workload]]
        paired = [(p, c) for p, c in zip(parent[workload], change[workload]) if p["seed"] == c["seed"]]
        if len(paired) != len(seeds) or len(paired) != len(change[workload]):
            lines.append(f"{workload}: the two sets do not hold the same seeds in the same order")
            continue
        same = sum(p["digest"] == c["digest"] for p, c in paired)
        lines.append(f"{workload}: {len(paired)} pairs, identical digests in {same} of {len(paired)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [p["result"]["metrics"][name]["value"] for p, _ in paired]
            cv = [c["result"]["metrics"][name]["value"] for _, c in paired]
            v, win_frac = verdict(pv, cv, metric["better"], metric["bound"])
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            lines.append(
                f"  {name:16s} {metric['unit']:6s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]"
                f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  wins {win_frac:.0%}  {v}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for line in compare(load(argv[0]), load(argv[1]), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
