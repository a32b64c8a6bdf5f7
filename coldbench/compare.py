"""Compare the result lines of two sets of runs, metric by metric.

    python3 coldbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the last output line of several runs of one workload, one
JSON object a line. For each metric it prints the median, the quartiles and
their distance as a share of the median (the spread the bounds of
BENCHMARK.json are checked against). Given a second file, it also prints how
far the new median moved against the base median, and flags a metric that
got worse by more than its bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as fh:
        runs = [json.loads(line) for line in fh if line.startswith("{")]
    failed = sum(r["failed"] for r in runs)
    values = {}
    for r in runs:
        for k, m in r["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    return runs, failed, values


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sides = [load(p) for p in argv]
    for path, (runs, failed, _) in zip(argv, sides):
        print(f"{path}: {len(runs)} runs, {failed} failed operations")
    worse = False
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}"
          + ("  change" if len(sides) > 1 else ""))
    for name, base in sides[0][2].items():
        med, q1, q3, spread = summary(base)
        bound, better = bounds.get(name, (None, None))
        line = f"{name:32s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} "
        line += f"{bound:6.3f}" if bound is not None else f"{'-':>6s}"
        if len(sides) > 1 and name in sides[1][2] and med:
            change = (summary(sides[1][2][name])[0] - med) / med
            line += f"  {change:+.3f}"
            if bound is not None and (change if better == "lower" else -change) > bound:
                line += " WORSE"
                worse = True
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
