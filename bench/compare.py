#!/usr/bin/env python3
"""Compare two result files written by `run.py --out`.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

For each workload and end-to-end metric in BENCHMARK.json it prints both
sides' median and quartiles over their runs, the ratio NEW/BASE with the
base value, and a verdict against the metric's bound:

    better      every NEW run beats every BASE run
    unresolved  a side's quartile spread, as a share of its median, is
                wider than the bound
    worse       NEW's median is worse than BASE's by more than the bound
    ok          otherwise

A run whose checks failed is reported as failing, whatever its times.
Exit status 1 when any row is worse or any run failed, else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{workload: [detail record, ...]} for the untraced runs in a file."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound) -> str:
    sign = 1 if better == "lower" else -1
    if all(sign * n < sign * b for n in new for b in base):
        return "better"
    for values in (base, new):
        q1, q2, q3 = quartiles(values)
        if q2 and (q3 - q1) / abs(q2) > bound:
            return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    if b and sign * (n - b) / abs(b) > bound:
        return "worse"
    return "ok"


def compare(base_runs, new_runs, metrics) -> list:
    rows = []
    for workload in sorted(set(base_runs) | set(new_runs)):
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        if not base or not new:
            rows.append((workload, "-", "missing on one side", "missing"))
            continue
        for side, runs in (("base", base), ("new", new)):
            failing = sum(not r["correct"] for r in runs)
            if failing:
                rows.append((workload, "-", f"{failing} of {len(runs)} {side} runs failed checks",
                             "failed"))
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in base]
            n = [r["metrics"][m["name"]]["value"] for r in new]
            qb, qn = quartiles(b), quartiles(n)
            ratio = qn[1] / qb[1] if qb[1] else float("nan")
            result = verdict(b, n, m["better"], m["bound"])
            text = (f"base {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b)}  "
                    f"new {qn[1]:.4g} [{qn[0]:.4g}, {qn[2]:.4g}] n={len(n)}  "
                    f"new/base {ratio:.3f} (base {qb[1]:.4g} {m['unit']})  "
                    f"{result} (bound {m['bound']})")
            rows.append((workload, m["name"], text, result))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    rows = compare(load(argv[0]), load(argv[1]), metrics)
    for workload, metric, text, _ in rows:
        print(f"{workload:9} {metric:13} {text}")
    return 1 if any(r[3] in ("worse", "failed", "missing") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
