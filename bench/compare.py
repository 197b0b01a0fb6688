"""Compare two result sets written by ``run.py --out``.

For each workload and metric: both medians and quartiles, the ratio
after/before, and a verdict for the end-to-end metrics:

* ``unresolved``          either side's quartile spread, as a share of its
                          median, exceeds the metric's bound (unless every
                          "after" run beats every "before" run);
* ``worse-beyond-bound``  the after median is worse by more than the bound;
* ``better``              the after median is better by more than the
                          before runs' own spread;
* ``within-bound``        none of the above.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path) -> dict:
    """{(workload, metric): [values]} from a JSON-lines result file."""
    values = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                for name, metric in run["metrics"].items():
                    values[(run["env"]["workload"], name)].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(before: list[float], after: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # after the sign flip, lower is better
    if max(sign * v for v in after) < min(sign * v for v in before):
        return "better"
    if max(spread(before), spread(after)) > bound:
        return "unresolved"
    med_b, med_a = statistics.median(before), statistics.median(after)
    change = sign * (med_a - med_b) / abs(med_b) if med_b else 0.0
    if change > bound:
        return "worse-beyond-bound"
    if -change > spread(before):
        return "better"
    return "within-bound"


def main(before_path, after_path, benchmark_json: Path) -> int:
    spec = json.loads(Path(benchmark_json).read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    before, after = load(before_path), load(after_path)
    print(f"{'workload':<13} {'metric':<44} {'before q1/med/q3':>32} "
          f"{'after q1/med/q3':>32} {'ratio':>7}  verdict")
    worse = 0
    for key in sorted(set(before) & set(after)):
        workload, name = key
        b, a = before[key], after[key]
        qb, qa = quartiles(b), quartiles(a)
        ratio = qa[1] / qb[1] if qb[1] else float("nan")
        if name in bounds:
            v = verdict(b, a, *bounds[name])
            worse += v == "worse-beyond-bound"
        else:
            v = "-"
        print(f"{workload:<13} {name:<44} "
              f"{'/'.join(f'{x:.4g}' for x in qb):>32} {'/'.join(f'{x:.4g}' for x in qa):>32} "
              f"{ratio:>7.3f}  {v}")
    return 1 if worse else 0
