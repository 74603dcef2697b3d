#!/usr/bin/env python3
"""Compare two commits measured by run.py.

    python benchmarks/layers/compare.py PARENT.json CHANGE.json
    python benchmarks/layers/compare.py P1.json C1.json P2.json C2.json ...

Each file is a ``run.py --out`` report of the untraced benchmark; files
are given as alternating (parent, change) pairs, one pair per run of
both commits.  One row per (workload, end-to-end metric): both medians
and quartiles, the ratio with its base, the bound, and a verdict:

* ``unresolved`` — either side's run-to-run spread (quartile distance /
  median) exceeds the bound, so the pairing says nothing;
* ``regressed``  — the change's median is worse than the parent's by
  more than the bound;
* ``improved``   — the change wins at least nine tenths of the pairs
  (ties count for neither side) *and* the medians differ by more than
  the parent's own quartile distance (choosing-metrics guide, §8; with
  fewer than ten pairs the row is marked ``n<10`` — not a claim);
* ``unchanged``  — none of the above.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict_of(
    parent: List[float], change: List[float], lower_is_better: bool,
    bound: float,
) -> str:
    p1, _, p3 = quartiles(parent)
    c1, _, c3 = quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (c_med - p_med) / p_med
    spread = max((p3 - p1) / p_med, (c3 - c1) / c_med)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if (
        wins >= 0.9 * len(parent)
        and worse_by < 0
        and abs(c_med - p_med) > p3 - p1
    ):
        return "improved" + ("" if len(parent) >= 10 else " (n<10)")
    return "unchanged"


def load(path: str) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)["workloads"]


def main(argv: List[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        declared = json.load(stream)
    parents = [load(path) for path in argv[0::2]]
    changes = [load(path) for path in argv[1::2]]
    regressed = False
    print(f"{len(parents)} pair(s); ratio = change median / parent median")
    print(f"{'workload':<14} {'metric':<12} {'parent med [q1,q3]':>34} "
          f"{'change med [q1,q3]':>34} {'ratio of base':>22} bound verdict")
    for workload in (w["name"] for w in declared["workloads"]):
        if not all(workload in report for report in parents + changes):
            continue
        for metric in declared["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            p, c = (
                [r[workload]["metrics"][name]["value"] for r in side]
                for side in (parents, changes)
            )
            verdict = verdict_of(
                p, c, metric["better"] == "lower", metric["bound"]
            )
            regressed |= verdict == "regressed"
            cells = []
            for values in (p, c):
                q1, _, q3 = quartiles(values)
                cells.append(
                    f"{statistics.median(values):.5g} [{q1:.5g},{q3:.5g}]"
                )
            p_med = statistics.median(p)
            ratio = f"{statistics.median(c) / p_med:.3f} of {p_med:.5g} {unit}"
            print(f"{workload:<14} {name:<12} {cells[0]:>34} {cells[1]:>34} "
                  f"{ratio:>22} {metric['bound']:.2f} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
