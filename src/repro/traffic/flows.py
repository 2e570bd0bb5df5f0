"""Flow-level model.

Stateful NFs (firewall, NAT, monitor) keep per-flow state; the migration
mechanism's cost model scales with active flow count, and the scale-out
fallback splits traffic by flow hash.  :class:`FlowTable` generates a
stable population of 5-tuples and maps packets onto flows.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import List, Tuple

from ..errors import ConfigurationError


@dataclass(frozen=True)
class FiveTuple:
    """Classic transport 5-tuple identifying one flow."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str = "tcp"

    def hash_bucket(self, buckets: int) -> int:
        """Deterministic hash split used by scale-out load balancing.

        CRC-based over the canonical 5-tuple text, so splits are stable
        across processes and runs (unlike the built-in ``hash``, which
        is salted per process).
        """
        if buckets <= 0:
            raise ConfigurationError("bucket count must be positive")
        text = (f"{self.src_ip}|{self.dst_ip}|{self.src_port}|"
                f"{self.dst_port}|{self.protocol}")
        return zlib.crc32(text.encode()) % buckets


class FlowTable:
    """A fixed population of flows with weighted packet assignment.

    Packet-to-flow assignment is Zipf-like (a few heavy flows, many
    mice) to mirror real traffic, which matters for scale-out: hash
    splits of skewed traffic are uneven, and the simulator should show
    that.
    """

    def __init__(self, num_flows: int = 128, seed: int = 7,
                 zipf_s: float = 1.1) -> None:
        if num_flows <= 0:
            raise ConfigurationError("need at least one flow")
        if zipf_s <= 0:
            raise ConfigurationError("zipf exponent must be positive")
        self.num_flows = num_flows
        self._seed = seed
        # Zipf weights over flow ranks.
        self._weights = [1.0 / (rank ** zipf_s)
                         for rank in range(1, num_flows + 1)]
        # Precomputed draw state: cumulative weights, the float total,
        # and the bisect ceiling.  These replicate random.choices()
        # draw-for-draw (one rng.random() per pick, same rounding, same
        # bisect bounds) without rebuilding the cumulative table on
        # every packet.
        self._cum_weights = list(accumulate(self._weights))
        self._total_weight = self._cum_weights[-1] + 0.0
        self._hi = num_flows - 1

    @cached_property
    def flows(self) -> List[FiveTuple]:
        """The population's 5-tuples, in flow-id order.

        Built on first use from the table's own seeded RNG (flow picks
        use the caller's), so deferring it changes no draw; most runs
        never read them.
        """
        rng = random.Random(self._seed)
        return [
            FiveTuple(
                src_ip=f"10.0.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
                dst_ip=f"192.168.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
                src_port=rng.randint(1024, 65535),
                dst_port=rng.choice([80, 443, 53, 8080, 22]),
                protocol=rng.choice(["tcp", "tcp", "tcp", "udp"]))
            for _ in range(self.num_flows)]

    def __len__(self) -> int:
        return self.num_flows

    def pick_flow(self, rng: random.Random) -> int:
        """Flow id for the next packet, Zipf-weighted.

        Draw-identical to ``rng.choices(range(n), weights=...)`` — the
        same single uniform variate lands in the same cumulative-weight
        slot — so seeded traffic is unchanged.
        """
        return bisect(self._cum_weights, rng.random() * self._total_weight,
                      0, self._hi)

    def flow(self, flow_id: int) -> FiveTuple:
        """The 5-tuple of ``flow_id``."""
        return self.flows[flow_id]

    def split(self, buckets: int) -> List[List[int]]:
        """Partition flow ids by hash bucket (scale-out flow steering)."""
        out: List[List[int]] = [[] for _ in range(buckets)]
        for fid, ft in enumerate(self.flows):
            out[ft.hash_bucket(buckets)].append(fid)
        return out
