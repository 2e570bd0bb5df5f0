"""Packets and packet-size distributions.

The paper's sender sweeps fixed frame sizes from 64 B to 1500 B (S3).
Beyond :class:`FixedSize` for that sweep, :class:`UniformSize` and
:class:`IMixSize` provide realistic mixes for the ablation workloads
(IMIX is the classic 7:4:1 mix of 64/570/1500-byte frames).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..units import MAX_FRAME_BYTES, MIN_FRAME_BYTES


#: The packet-size sweep used by Figure 2 (64 B ... 1500 B).
PAPER_SIZE_SWEEP: Tuple[int, ...] = (64, 128, 256, 512, 1024, 1500)


@dataclass(slots=True)
class Packet:
    """One simulated frame travelling through the service chain.

    ``slots=True`` matters: campaigns allocate hundreds of thousands of
    packets and touch their fields on every hop, and slot access skips
    the per-instance dict.
    """

    #: Monotonic sequence number assigned by the generator.
    seq: int
    #: Frame size in bytes (L2, excluding preamble/IFG).
    size_bytes: int
    #: Wire arrival time at the server, seconds.
    arrival_s: float
    #: Flow the packet belongs to (index into the generator's flow table).
    flow_id: int = 0
    #: Completion time, filled in by the simulator when the packet exits.
    departure_s: Optional[float] = None
    #: Whether the packet was dropped, and at which NF.
    dropped_at: Optional[str] = None
    #: Latency components, seconds, accumulated in place on every hop
    #: (see :mod:`repro.sim.latency`): wire serialisation, NF service,
    #: queue and migration-buffer waiting, PCIe transfers.
    wire: float = 0.0
    processing: float = 0.0
    queueing: float = 0.0
    pcie: float = 0.0

    @property
    def latency_s(self) -> Optional[float]:
        """End-to-end latency once the packet has departed, else None."""
        if self.departure_s is None:
            return None
        return self.departure_s - self.arrival_s

    @property
    def delivered(self) -> bool:
        """Whether the packet made it through the whole chain."""
        return self.departure_s is not None and self.dropped_at is None


def _validate_size(size: int) -> int:
    if not (MIN_FRAME_BYTES <= size <= 9000):
        raise ConfigurationError(
            f"frame size {size} outside [64, 9000] bytes")
    return size


class SizeDistribution:
    """Base class: draws frame sizes for generated packets."""

    def sample(self, rng: random.Random) -> int:
        """One frame size in bytes."""
        raise NotImplementedError

    def mean_bytes(self) -> float:
        """Expected frame size; generators use it to convert bps to pps."""
        raise NotImplementedError


class FixedSize(SizeDistribution):
    """Every frame has the same size — the paper's sweep points."""

    def __init__(self, size_bytes: int) -> None:
        self.size_bytes = _validate_size(size_bytes)

    def sample(self, rng: random.Random) -> int:
        """The fixed size, always."""
        return self.size_bytes

    def mean_bytes(self) -> float:
        """The fixed size."""
        return float(self.size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedSize({self.size_bytes}B)"


class UniformSize(SizeDistribution):
    """Frame sizes uniform in [lo, hi]."""

    def __init__(self, lo: int = MIN_FRAME_BYTES, hi: int = MAX_FRAME_BYTES) -> None:
        self.lo = _validate_size(lo)
        self.hi = _validate_size(hi)
        if lo > hi:
            raise ConfigurationError(f"empty size range [{lo}, {hi}]")

    def sample(self, rng: random.Random) -> int:
        """A size uniform in [lo, hi]."""
        return rng.randint(self.lo, self.hi)

    def mean_bytes(self) -> float:
        """Midpoint of the range."""
        return (self.lo + self.hi) / 2.0


class IMixSize(SizeDistribution):
    """The simple IMIX: 64 B x7 : 570 B x4 : 1500 B x1."""

    SIZES: Sequence[int] = (64, 570, 1500)
    WEIGHTS: Sequence[int] = (7, 4, 1)

    def sample(self, rng: random.Random) -> int:
        """One of 64/570/1500 B at the 7:4:1 weights."""
        return rng.choices(self.SIZES, weights=self.WEIGHTS, k=1)[0]

    def mean_bytes(self) -> float:
        """Weighted mean of the IMIX sizes."""
        total = sum(self.WEIGHTS)
        return sum(s * w for s, w in zip(self.SIZES, self.WEIGHTS)) / total
