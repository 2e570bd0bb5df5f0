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
one attribute update and no lookup.  Once a packet's latency is final
(it departs), :class:`LatencyLedger` records it as one fixed-width row
of doubles, and the packet object is let go: the ledger is the data
plane's record of delivered packets (``ChainNetwork.delivered``).
"""

from __future__ import annotations

from array import array
from functools import reduce
from operator import add
from struct import Struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import SimulationError
from ..traffic.packet import Packet

COMPONENTS = ("wire", "processing", "queueing", "pcie")

#: One ledger row, in column order: 9 doubles (72 B), exact for the
#: integer fields below 2**53.
ROW_FIELDS = ("seq", "size_bytes", "flow_id", "arrival_s", "departure_s",
              "wire", "processing", "queueing", "pcie")
_WIDTH = len(ROW_FIELDS)
#: Packs one row's values, in :data:`ROW_FIELDS` order, into the bytes
#: :attr:`LatencyLedger.append_row` takes (native doubles, as in the
#: ledger's ``array('d')``).
pack_row = Struct(f"{_WIDTH}d").pack
_COLUMN = {name: column for column, name in enumerate(ROW_FIELDS)}


def add_latency(packet: Packet, component: str, seconds: float) -> None:
    """Attribute ``seconds`` of ``packet``'s life to ``component``."""
    if seconds < 0:
        raise SimulationError(
            f"negative latency contribution {seconds} to {component}")
    if component not in COMPONENTS:
        raise SimulationError(f"unknown latency component {component!r}")
    setattr(packet, component, getattr(packet, component) + seconds)


def _packet(seq: float, size_bytes: float, flow_id: float,
            arrival_s: float, departure_s: float, wire: float,
            processing: float, queueing: float, pcie: float) -> Packet:
    """The delivered packet one row records."""
    return Packet(int(seq), int(size_bytes), arrival_s, int(flow_id),
                  departure_s, None, wire, processing, queueing, pcie)


class LatencyLedger:
    """Delivered packets as rows of one ``array('d')``, and their aggregates.

    A packet is recorded once its latency is final, so the ledger holds
    snapshots: reading it rebuilds :class:`Packet` objects equal, field
    for field, to the recorded ones.  It reads as a sequence of those
    packets (``len``, iteration, indexing, :meth:`pop`, :meth:`clear`),
    and :meth:`column` hands aggregates a whole field at once.
    """

    def __init__(self) -> None:
        self._rows = array("d")
        #: Append one row packed by :func:`pack_row`.  The bound
        #: ``frombytes`` of the row array, so the data plane's departure
        #: hop records a packet with two C calls and no Python one
        #: (``struct`` converts the nine values faster than the array's
        #: own per-item ``extend`` or ``fromlist``).
        self.append_row = self._rows.frombytes

    def record(self, packet: Packet) -> None:
        """Record departed ``packet``; call after its last field write."""
        if packet.departure_s is None:
            raise SimulationError(
                f"packet {packet.seq} has not departed; nothing to record")
        self.append_row(pack_row(
            packet.seq, packet.size_bytes, packet.flow_id, packet.arrival_s,
            packet.departure_s, packet.wire, packet.processing,
            packet.queueing, packet.pcie))

    def column(self, name: str) -> array:
        """Every row's ``name`` field (one of :data:`ROW_FIELDS`), in
        recording order, as a new array."""
        return self._rows[_COLUMN[name]::_WIDTH]

    # -- sequence view ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows) // _WIDTH

    def __iter__(self) -> Iterator[Packet]:
        rows = self._rows
        return map(_packet, *(rows[k::_WIDTH] for k in range(_WIDTH)))

    def __getitem__(self, index: int) -> Packet:
        start = range(len(self))[index] * _WIDTH
        return _packet(*self._rows[start:start + _WIDTH])

    def pop(self) -> Packet:
        """Remove and return the last recorded packet."""
        packet = self[-1]
        del self._rows[-_WIDTH:]
        return packet

    def clear(self) -> None:
        """Forget every recorded packet (the end of a run)."""
        del self._rows[:]

    # -- ledger -------------------------------------------------------------

    def record_for(self, seq: int) -> Packet:
        """The first recorded packet ``seq``, carrying its latency components."""
        try:
            position = self.column("seq").index(seq)
        except ValueError:
            raise SimulationError(
                f"no packet with seq {seq} was recorded") from None
        return self[position]

    def records(self) -> List[Packet]:
        """All recorded packets in seq order."""
        return sorted(self, key=lambda packet: packet.seq)

    def component_means(self, seqs: Optional[Iterable[int]] = None) -> Dict[str, float]:
        """Mean seconds per component over ``seqs`` (default: all packets).

        Each component is summed left to right in recording (or
        ``seqs``) order, then divided by the packet count.
        """
        columns: List[Sequence[float]]
        if seqs is None:
            columns = [self.column(c) for c in COMPONENTS]
        else:
            position = {seq: row for row, seq in enumerate(self.column("seq"))}
            try:
                packets = [self[position[seq]] for seq in seqs]
            except KeyError as missing:
                raise SimulationError(
                    f"no packet with seq {missing} was recorded") from None
            columns = [[getattr(p, c) for p in packets] for c in COMPONENTS]
        count = len(columns[0])
        if count == 0:
            return dict.fromkeys(COMPONENTS, 0.0)
        return {c: reduce(add, values, 0.0) / count
                for c, values in zip(COMPONENTS, columns)}
