"""Run the benchmark over workloads and seeds and collect a result set.

    python3 perfbench/sweep.py [--workloads corpus wide deep] [--seeds 1-10]
                               [--seconds 30] [--trace 0] [--out results.jsonl]
                               [--checkout DIR [--checkout DIR2 --out2 other.jsonl]]

Each run is `perfbench/run.py` in a fresh process, from the root of the
checkout it measures (default: the current directory). A result set is a
JSON-lines file, one record per run: workload, seed, trace flag, digest and
the run's result object. With two checkouts the runs alternate which
checkout goes first, seed by seed, so the two sets form alternating pairs
for `compare.py`. At the end the median of every metric is printed per
workload, by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import spec_run_seconds


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode}) in {checkout}")
    digest = next((ln.split()[-1] for ln in lines if ln.startswith("digest ")), None)
    return {"workload": workload, "seed": seed, "trace": trace, "digest": digest,
            "result": json.loads(lines[-1])}


def summarize(records: list[dict]) -> None:
    by_workload: dict[str, list[dict]] = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    for workload, recs in by_workload.items():
        correct = all(r["result"]["correct"] for r in recs)
        digests = {r["seed"]: r["digest"] for r in recs}
        print(f"{workload}: {len(recs)} runs, correct={correct}, digests by seed {digests}")
        for name, first in recs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            med = statistics.median(values)
            spread = ""
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"  quartile spread {(q3 - q1) / abs(med):.1%}"
            print(f"  {name:34s} {med:14.6g} {first['unit']}{spread}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=["corpus", "wide", "deep"])
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=int, default=None,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checkout", action="append", default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--out2", default=None)
    args = ap.parse_args(argv)

    checkouts = [os.path.abspath(c) for c in (args.checkout or [os.getcwd()])]
    if len(checkouts) > 2 or (len(checkouts) == 2 and not (args.out and args.out2)):
        ap.error("give at most two checkouts, and --out and --out2 with two")
    seconds = args.seconds if args.seconds is not None else spec_run_seconds()
    outs = [args.out, args.out2][: len(checkouts)]
    sets: list[list[dict]] = [[] for _ in checkouts]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in args.workloads:
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for k in order:
                rec = run_once(checkouts[k], workload, seed, seconds, args.trace)
                sets[k].append(rec)
                if outs[k]:
                    with open(outs[k], "a", encoding="utf-8") as f:
                        f.write(json.dumps(rec) + "\n")
                print(f"done {workload} seed {seed} in {checkouts[k]}", file=sys.stderr)
    for k, records in enumerate(sets):
        if len(sets) > 1:
            print(f"== {checkouts[k]}")
        summarize(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
