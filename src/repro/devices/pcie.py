"""PCIe link model between the SmartNIC and the host CPU.

The paper's central cost term: each extra NIC<->CPU traversal "adds tens
of microseconds latency according to our experiments" (S1).  We model a
crossing as

``latency = base_latency + serialisation(packet_bytes / effective_bw)``

where ``base_latency`` covers DMA setup, doorbell, interrupt/poll, and
driver hand-off (the dominant fixed cost the paper refers to), and the
serialisation term grows with packet size — which is why the naive
policy's penalty widens at 1500 B in Figure 2.

Defaults approximate a PCIe gen3 x8 link (~7.9 GB/s raw; we use an
effective 6.4 GB/s after DMA/descriptor overheads) with a 14 µs fixed
cost per crossing, squarely in the paper's "tens of microseconds for two
crossings" regime.  The link also counts crossings and bytes so the
harness can report exactly how many transfers each policy caused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..units import gbps, usec


#: Effective PCIe gen3 x8 payload bandwidth: 6.4 GB/s of payload is
#: 51.2 Gbit/s in the decimal units link rates use.
DEFAULT_PCIE_BANDWIDTH_BPS = gbps(6.4 * 8)
#: Fixed per-crossing latency (DMA + doorbell + driver), seconds.
#: Calibrated so two extra crossings cost ~25 us — the paper's "tens of
#: microseconds", and ~18% of the canonical chain's latency (S3).
DEFAULT_CROSSING_LATENCY_S = usec(14.0)


@dataclass
class PCIeStats:
    """Counters accumulated by a :class:`PCIeLink` during a run."""

    crossings: int = 0
    bytes_transferred: int = 0
    busy_time_s: float = 0.0
    #: Time crossings spent waiting for the link (contention mode only).
    queue_wait_s: float = 0.0

    def reset(self) -> None:
        """Zero all counters (the runner resets between experiments)."""
        self.crossings = 0
        self.bytes_transferred = 0
        self.busy_time_s = 0.0
        self.queue_wait_s = 0.0


class PCIeLink:
    """The NIC<->CPU interconnect with fixed latency plus serialisation.

    ``model_contention`` enables the detailed transmission model the
    paper lists as future work ("analyze PCIe transmissions in
    detail"): the serialisation portion of each crossing occupies the
    link exclusively, so back-to-back crossings queue behind each other.
    The fixed ``crossing_latency_s`` is treated as propagation/DMA-setup
    pipeline delay and does not occupy the link.  Contention is off by
    default, which keeps light-load latency in closed form (see
    :mod:`repro.analysis.latency_model`).
    """

    def __init__(self,
                 bandwidth_bps: float = DEFAULT_PCIE_BANDWIDTH_BPS,
                 crossing_latency_s: float = DEFAULT_CROSSING_LATENCY_S,
                 model_contention: bool = False) -> None:
        if bandwidth_bps <= 0:
            raise ConfigurationError("PCIe bandwidth must be positive")
        if crossing_latency_s < 0:
            raise ConfigurationError("PCIe crossing latency must be >= 0")
        self.bandwidth_bps = bandwidth_bps
        self.crossing_latency_s = crossing_latency_s
        self.model_contention = model_contention
        self.stats = PCIeStats()
        self._busy_until_s = 0.0
        #: Extra per-transfer latency while a link flap is active (fault
        #: injection); 0 when the link is healthy.  A very large value
        #: approximates an unavailability window: crossings started
        #: during it land only after the link recovers.
        self.fault_extra_latency_s = 0.0

    def set_fault(self, extra_latency_s: float) -> None:
        """Start a link flap: every transfer pays this extra latency."""
        if extra_latency_s < 0:
            raise ConfigurationError("fault latency must be >= 0")
        self.fault_extra_latency_s = extra_latency_s

    def clear_fault(self) -> None:
        """End the link flap; transfers pay nominal latency again."""
        self.fault_extra_latency_s = 0.0

    def crossing_time(self, packet_bytes: int) -> float:
        """Uncontended latency of one NIC<->CPU packet transfer."""
        if packet_bytes < 0:
            raise ConfigurationError("packet size must be >= 0")
        return (self.crossing_latency_s + self.fault_extra_latency_s
                + (packet_bytes * 8.0) / self.bandwidth_bps)

    def record_crossing(self, packet_bytes: int,
                        now_s: Optional[float] = None) -> float:
        """Account one crossing and return its latency.

        With contention modelling on and a clock provided, the returned
        latency includes the wait for earlier transfers still holding
        the link.
        """
        if packet_bytes < 0:
            raise ConfigurationError("packet size must be >= 0")
        # Inlined crossing_time(): this runs twice per PCIe-adjacent
        # packet hop, and the call overhead shows up in packet mode.
        t = (self.crossing_latency_s + self.fault_extra_latency_s
             + (packet_bytes * 8.0) / self.bandwidth_bps)
        wait = 0.0
        if self.model_contention and now_s is not None:
            serialise = (packet_bytes * 8.0) / self.bandwidth_bps
            start = max(now_s, self._busy_until_s)
            wait = start - now_s
            self._busy_until_s = start + serialise
            t += wait
        stats = self.stats
        stats.crossings += 1
        stats.bytes_transferred += packet_bytes
        stats.busy_time_s += t
        stats.queue_wait_s += wait
        return t

    def reset(self) -> None:
        """Clear counters, link occupancy, and faults (between experiments)."""
        self.stats.reset()
        self._busy_until_s = 0.0
        self.fault_extra_latency_s = 0.0

    def bulk_transfer_time(self, nbytes: int) -> float:
        """Time to DMA ``nbytes`` of NF state across the link.

        Used by the migration mechanism: a state transfer is one long
        DMA, so it pays the fixed crossing cost once plus serialisation
        — and, during a link flap, the fault's extra latency, which is
        how a flap mid-migration can push an attempt past its timeout.
        """
        if nbytes < 0:
            raise ConfigurationError("transfer size must be >= 0")
        return (self.crossing_latency_s + self.fault_extra_latency_s
                + (nbytes * 8.0) / self.bandwidth_bps)
