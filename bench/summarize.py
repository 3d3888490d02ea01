#!/usr/bin/env python3
"""Median, quartiles and spread of each metric over a set of runs.

Reads the run records ``bench/run.py`` leaves in ``.bench_out/``:

    python3 bench/summarize.py --seeds 101-110 --seeds 201-210
    python3 bench/summarize.py --trace --seeds 1

Each ``--seeds`` range is one set; the spread is the interquartile range
over the median, as ``statistics.quantiles(values, n=4)`` gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"
WORKLOADS = ("deep-history", "long-threads", "fetch-cache")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", action="append", type=seed_range, required=True)
    parser.add_argument("--trace", action="store_true", help="per-layer records instead")
    args = parser.parse_args()
    kind = "trace" if args.trace else "run"
    for workload in WORKLOADS:
        sets = []
        for seeds in args.seeds:
            paths = [OUT / f"{kind}-{workload}-seed{seed}.json" for seed in seeds]
            records = [json.loads(p.read_text()) for p in paths if p.exists()]
            if records:
                sets.append(records)
        if not sets:
            continue
        print(f"## {workload}")
        print("| metric | " + " | ".join(f"set {i + 1} (n={len(s)}): q1 / median / q3, spread"
                                         for i, s in enumerate(sets)) + " |")
        print("| --- |" + " --- |" * len(sets))
        for name in sets[0][0]["metrics"]:
            cells = []
            for records in sets:
                q1, q2, q3 = quartiles([r["metrics"][name] for r in records])
                cells.append(f"{q1:.4g} / {q2:.4g} / {q3:.4g}, {(q3 - q1) / q2:.3f}" if q2 else "0")
            print(f"| `{name}` | " + " | ".join(cells) + " |")
        print()


if __name__ == "__main__":
    main()
