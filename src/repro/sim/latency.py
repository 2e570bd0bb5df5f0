"""Per-packet latency decomposition.

The paper argues about *where* latency comes from (PCIe crossings vs.
NF processing), so the simulator attributes every microsecond of each
packet's life to one of four components:

* ``wire`` — ingress/egress serialisation on the Ethernet port,
* ``processing`` — time being served inside NFs,
* ``queueing`` — time waiting in NF ingress queues (and migration buffers),
* ``pcie`` — NIC<->CPU transfers.

The components are slots of the :class:`~repro.traffic.packet.Packet`
itself, accumulated in place on every hop, so attributing a hop costs
one attribute update and no lookup.  :class:`LatencyLedger` indexes
the packets a caller hands it by seq and aggregates their components;
the data plane keeps no such index (its outcome lists hold the packets).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import SimulationError
from ..traffic.packet import Packet

COMPONENTS = ("wire", "processing", "queueing", "pcie")


def add_latency(packet: Packet, component: str, seconds: float) -> None:
    """Attribute ``seconds`` of ``packet``'s life to ``component``."""
    if seconds < 0:
        raise SimulationError(
            f"negative latency contribution {seconds} to {component}")
    if component not in COMPONENTS:
        raise SimulationError(f"unknown latency component {component!r}")
    setattr(packet, component, getattr(packet, component) + seconds)


class LatencyLedger:
    """Packets by seq, filled by :meth:`index`, and their aggregates."""

    def __init__(self) -> None:
        self._packets: Dict[int, Packet] = {}

    def index(self, packets: Iterable[Packet]) -> None:
        """Add injected ``packets`` to the index."""
        self._packets.update((packet.seq, packet) for packet in packets)

    def record_for(self, seq: int) -> Packet:
        """The indexed packet ``seq``, carrying its latency components."""
        packet = self._packets.get(seq)
        if packet is None:
            raise SimulationError(f"no packet with seq {seq} was injected")
        return packet

    def clear(self) -> None:
        """Forget every indexed packet (the end of a run)."""
        self._packets.clear()

    def __len__(self) -> int:
        return len(self._packets)

    def records(self) -> List[Packet]:
        """All indexed packets in seq order."""
        return [self._packets[k] for k in sorted(self._packets)]

    def component_means(self, seqs: Optional[Iterable[int]] = None) -> Dict[str, float]:
        """Mean seconds per component over ``seqs`` (default: all packets)."""
        chosen = (self._packets[s] for s in seqs) if seqs is not None \
            else iter(self._packets.values())
        totals = dict.fromkeys(COMPONENTS, 0.0)
        count = 0
        for packet in chosen:
            for component in COMPONENTS:
                totals[component] += getattr(packet, component)
            count += 1
        if count == 0:
            return dict.fromkeys(COMPONENTS, 0.0)
        return {c: v / count for c, v in totals.items()}
