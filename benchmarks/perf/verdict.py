"""Summary statistics and the rule for comparing two commits.

Compare two commits on one workload from the last lines of their runs
(one JSON result per line, runs in alternating parent/change order)::

    python3 benchmarks/perf/verdict.py parent.jsonl change.jsonl

Each end-to-end metric of ``BENCHMARK.json`` gets a verdict: ``gain``,
``regression``, ``within bound`` or ``unresolved`` (see :func:`verdict`).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9
#: Where the metrics' bounds and directions are defined.
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolating between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def reportable(count: int, p: float) -> bool:
    """Whether ``count`` samples leave ten beyond the ``p``-th percentile."""
    # Rounded so that 10000 samples do support p99.9.
    return round(count * (100.0 - p) / 100.0, 6) >= MIN_BEYOND


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if reportable(count, p):
            return p
    return None


def quartiles(values: Sequence[float]):
    """First quartile, median, third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> str:
    """One metric's verdict, change against parent.

    ``gain`` when the change wins at least 9 in 10 pairs (ties count
    for neither) and the medians differ by more than the parent's
    interquartile range.  Otherwise ``unresolved`` when the parent's
    own spread exceeds ``bound`` (a share of its median) and not every
    change run beats every parent run; ``regression`` when the change's
    median is worse by more than ``bound``; else ``within bound``.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    improvement = sign * (change_median - parent_median)
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    if pairs and wins >= WIN_SHARE * len(pairs) and improvement > q3 - q1:
        return "gain"
    scale = abs(parent_median)
    if q3 - q1 > bound * scale:
        if all(sign * (new - old) > 0 for new in change for old in parent):
            return "within bound"
        return "unresolved"
    if -improvement > bound * scale:
        return "regression"
    return "within bound"


def _load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    """Print one verdict per end-to-end metric; exit 1 on a regression."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="result lines of the parent commit")
    parser.add_argument("change", help="result lines of the change")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    parent, change = _load(args.parent), _load(args.change)
    regressed = False
    for metric in metrics:
        name = metric["name"]
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        result = verdict(old, new, metric["bound"], metric["better"])
        regressed |= result == "regression"
        old_q, new_q = quartiles(old), quartiles(new)
        print(f"{name:<14} parent {old_q[1]:.6g} [{old_q[0]:.6g}, "
              f"{old_q[2]:.6g}]  change {new_q[1]:.6g} [{new_q[0]:.6g}, "
              f"{new_q[2]:.6g}]  n={len(old)}/{len(new)}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
