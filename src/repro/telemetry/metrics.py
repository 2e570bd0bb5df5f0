"""Latency / throughput aggregation.

The paper reports average latency and chain throughput (Figure 2); real
operators also watch tails, so :class:`LatencySummary` carries the
standard percentile set alongside the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import SimulationError
from ..units import as_usec


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sequence.

    ``fraction`` in [0, 1].  Matches numpy's default ("linear") method,
    implemented locally so the hot path has no array conversions.
    """
    if not sorted_values:
        raise SimulationError("percentile of empty sequence")
    if not (0.0 <= fraction <= 1.0):
        raise SimulationError(f"percentile fraction {fraction} outside [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = fraction * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return sorted_values[lo]
    weight = rank - lo
    # The lo + (hi - lo) * w form is exact when both neighbours are
    # equal, so results never escape [min, max] by a rounding ulp.
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * weight


@dataclass(frozen=True)
class LatencySummary:
    """Mean and percentiles of a latency sample, in seconds."""

    count: int
    mean_s: float
    p50_s: float
    p90_s: float
    p99_s: float
    max_s: float
    min_s: float

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "LatencySummary":
        """Summarise an iterable of per-packet latencies (seconds)."""
        values = sorted(samples)
        if not values:
            raise SimulationError("no latency samples to summarise")
        return cls(
            count=len(values),
            # Left to right, as LatencyLedger.component_means sums:
            # builtin sum() compensates on Python 3.12+, which would
            # move the mean's last bits with the interpreter.
            mean_s=reduce(add, values, 0.0) / len(values),
            p50_s=percentile(values, 0.50),
            p90_s=percentile(values, 0.90),
            p99_s=percentile(values, 0.99),
            max_s=values[-1],
            min_s=values[0])

    @property
    def mean_usec(self) -> float:
        """Mean latency in microseconds (the paper's unit)."""
        return as_usec(self.mean_s)

    def describe(self) -> str:
        """One-line human-readable summary in microseconds."""
        return (f"n={self.count} mean={as_usec(self.mean_s):.1f}us "
                f"p50={as_usec(self.p50_s):.1f}us p90={as_usec(self.p90_s):.1f}us "
                f"p99={as_usec(self.p99_s):.1f}us max={as_usec(self.max_s):.1f}us")


@dataclass(frozen=True)
class ThroughputSummary:
    """Delivered goodput over a measurement window."""

    delivered_packets: int
    delivered_bytes: int
    window_s: float

    @property
    def goodput_bps(self) -> float:
        """Delivered bits per second over the window."""
        if self.window_s <= 0:
            raise SimulationError("throughput window must be positive")
        return self.delivered_bytes * 8.0 / self.window_s

    @property
    def packet_rate_pps(self) -> float:
        """Delivered packets per second."""
        return self.delivered_packets / self.window_s


def relative_change(new: float, baseline: float) -> float:
    """``(new - baseline) / baseline`` — e.g. PAM-vs-naive latency delta."""
    if baseline == 0:
        raise SimulationError("relative change against a zero baseline")
    return (new - baseline) / baseline
