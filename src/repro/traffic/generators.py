"""Arrival-process generators — the library's stand-in for the DPDK sender.

A generator yields :class:`~repro.traffic.packet.Packet` objects with
monotonically increasing arrival times.  All generators are seeded and
fully deterministic so experiments are reproducible run to run.

* :class:`ConstantBitRate` — back-to-back frames at a target rate, what
  a DPDK pktgen does for the Figure 2 sweep.
* :class:`PoissonArrivals` — memoryless arrivals at a target average
  rate, the standard open-loop model for latency-vs-load curves.
* :class:`OnOffBursts` — two-state MMPP (high/low rate) reproducing the
  "network traffic fluctuates" overload trigger of S1.
* :class:`RampArrivals` — linearly growing offered load, used to find
  capacity knees for the Table 1 bench.
"""

from __future__ import annotations

import copy
import random
from typing import Iterator, Optional

from ..errors import ConfigurationError
from ..units import bits
from .flows import FlowTable
from .packet import FixedSize, Packet, SizeDistribution


class TrafficGenerator:
    """Base class: an iterator of packets over a bounded time horizon."""

    def __init__(self, size_dist: SizeDistribution,
                 duration_s: float,
                 seed: int = 1,
                 flow_table: Optional[FlowTable] = None) -> None:
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        self.size_dist = size_dist
        self.duration_s = duration_s
        self.seed = seed
        self.flow_table = flow_table or FlowTable(seed=seed)

    # subclasses implement ------------------------------------------------

    def _interarrival(self, rng: random.Random, now_s: float,
                      frame_bytes: int) -> float:
        """Seconds until the next packet after one of ``frame_bytes``."""
        raise NotImplementedError

    def mean_rate_bps(self) -> float:
        """Average offered load in bits/second (for reporting)."""
        raise NotImplementedError

    # common machinery -----------------------------------------------------

    def packets(self) -> Iterator[Packet]:
        """Generate the packet stream for the configured horizon."""
        rng = random.Random(self.seed)
        now = 0.0
        seq = 0
        while True:
            size = self.size_dist.sample(rng)
            gap = self._interarrival(rng, now, size)
            if gap < 0:
                raise ConfigurationError("negative interarrival generated")
            now += gap
            if now >= self.duration_s:
                return
            yield Packet(seq=seq, size_bytes=size, arrival_s=now,
                         flow_id=self.flow_table.pick_flow(rng))
            seq += 1

    def count_estimate(self) -> int:
        """Rough number of packets the horizon will produce."""
        per_packet_bits = bits(self.size_dist.mean_bytes())
        return int(self.mean_rate_bps() * self.duration_s / per_packet_bits)


class ConstantBitRate(TrafficGenerator):
    """Fixed-rate, evenly spaced frames (a DPDK pktgen in CBR mode)."""

    def __init__(self, rate_bps: float, size_dist: SizeDistribution,
                 duration_s: float, seed: int = 1,
                 flow_table: Optional[FlowTable] = None) -> None:
        super().__init__(size_dist, duration_s, seed, flow_table)
        if rate_bps <= 0:
            raise ConfigurationError("rate must be positive")
        self.rate_bps = rate_bps

    def _interarrival(self, rng: random.Random, now_s: float,
                      frame_bytes: int) -> float:
        return bits(frame_bytes) / self.rate_bps

    def mean_rate_bps(self) -> float:
        """The configured constant rate."""
        return self.rate_bps


class PoissonArrivals(TrafficGenerator):
    """Poisson arrivals with exponential interarrival times."""

    def __init__(self, rate_bps: float, size_dist: SizeDistribution,
                 duration_s: float, seed: int = 1,
                 flow_table: Optional[FlowTable] = None) -> None:
        super().__init__(size_dist, duration_s, seed, flow_table)
        if rate_bps <= 0:
            raise ConfigurationError("rate must be positive")
        self.rate_bps = rate_bps

    def _interarrival(self, rng: random.Random, now_s: float,
                      frame_bytes: int) -> float:
        mean_gap = bits(self.size_dist.mean_bytes()) / self.rate_bps
        return rng.expovariate(1.0 / mean_gap)

    def mean_rate_bps(self) -> float:
        """The configured average rate."""
        return self.rate_bps


class OnOffBursts(TrafficGenerator):
    """Two-state modulated Poisson process (bursty traffic).

    Alternates between a ``high_bps`` burst state and a ``low_bps``
    quiet state with exponentially distributed dwell times.  This is the
    "traffic fluctuates and the NIC overloads" workload of S1: during
    bursts the SmartNIC tips past capacity and the planner must react.
    """

    def __init__(self, low_bps: float, high_bps: float,
                 size_dist: SizeDistribution, duration_s: float,
                 mean_dwell_s: float = 0.05, seed: int = 1,
                 flow_table: Optional[FlowTable] = None) -> None:
        super().__init__(size_dist, duration_s, seed, flow_table)
        if not (0 < low_bps <= high_bps):
            raise ConfigurationError("need 0 < low <= high rate")
        if mean_dwell_s <= 0:
            raise ConfigurationError("dwell time must be positive")
        self.low_bps = low_bps
        self.high_bps = high_bps
        self.mean_dwell_s = mean_dwell_s
        self._state_high = False
        self._next_switch_s = 0.0

    def _interarrival(self, rng: random.Random, now_s: float,
                      frame_bytes: int) -> float:
        while now_s >= self._next_switch_s:
            self._state_high = not self._state_high
            self._next_switch_s += rng.expovariate(1.0 / self.mean_dwell_s)
        rate = self.high_bps if self._state_high else self.low_bps
        mean_gap = bits(self.size_dist.mean_bytes()) / rate
        return rng.expovariate(1.0 / mean_gap)

    def mean_rate_bps(self) -> float:
        """Midpoint of the two states (equal expected dwell)."""
        return (self.low_bps + self.high_bps) / 2.0

    def packets(self) -> Iterator[Packet]:
        """Generate packets from fresh modulation state.

        Each iteration modulates its own copy of the generator, so
        repeated iteration is deterministic, and so is consuming two
        iterations side by side (a run draws its workload lazily).
        """
        fresh = copy.copy(self)
        fresh._state_high = False
        fresh._next_switch_s = 0.0
        return TrafficGenerator.packets(fresh)


class RampArrivals(TrafficGenerator):
    """Offered load growing linearly from ``start_bps`` to ``end_bps``.

    The Table 1 bench ramps load through an NF and finds the knee where
    delivered throughput stops tracking offered load — the measured
    capacity.
    """

    def __init__(self, start_bps: float, end_bps: float,
                 size_dist: SizeDistribution, duration_s: float,
                 seed: int = 1,
                 flow_table: Optional[FlowTable] = None) -> None:
        super().__init__(size_dist, duration_s, seed, flow_table)
        if start_bps <= 0 or end_bps <= start_bps:
            raise ConfigurationError("need 0 < start < end rate")
        self.start_bps = start_bps
        self.end_bps = end_bps

    def rate_at(self, t_s: float) -> float:
        """Instantaneous offered rate at time ``t_s``."""
        frac = min(max(t_s / self.duration_s, 0.0), 1.0)
        return self.start_bps + frac * (self.end_bps - self.start_bps)

    def _interarrival(self, rng: random.Random, now_s: float,
                      frame_bytes: int) -> float:
        return bits(frame_bytes) / self.rate_at(now_s)

    def mean_rate_bps(self) -> float:
        """Midpoint of the linear ramp."""
        return (self.start_bps + self.end_bps) / 2.0


def cbr_64_to_1500(rate_bps: float, size_bytes: int,
                   duration_s: float, seed: int = 1) -> ConstantBitRate:
    """Convenience constructor matching the paper's sender configuration."""
    return ConstantBitRate(rate_bps, FixedSize(size_bytes), duration_s, seed)
