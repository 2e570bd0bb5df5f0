"""Wiring a placed service chain into the simulated server.

:class:`ChainNetwork` creates one :class:`~repro.sim.nfinstance.NFStation`
per NF, hosted on its placement's device, and forwards packets along the
chain.  Whenever two consecutive hops live on different devices the
packet pays a PCIe crossing (recorded on the server's link, attributed
to the packet's ``pcie`` latency component).  Traffic enters and leaves
through the SmartNIC's Ethernet port, paying wire serialisation each
way, so a CPU-resident head or tail NF also costs crossings — exactly
the geometry behind Figure 1.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from ..chain.nf import DeviceKind
from ..chain.placement import Placement
from ..devices.server import Server
from ..errors import SimulationError
from ..traffic.packet import Packet
from ..units import ETHERNET_OVERHEAD_BYTES
from .engine import Engine
from .latency import LatencyLedger, pack_row
from .nfinstance import NFStation, filters_out


class ChainNetwork:
    """The data plane: stations plus inter-station forwarding.

    It holds a packet only while the packet is in flight.  A delivered
    packet becomes a row of :attr:`delivered`; a dropped, filtered or
    shed one becomes a count (:attr:`dropped_at`, :attr:`filtered`,
    :attr:`shed`), and reference counting frees it at once.
    """

    def __init__(self, server: Server, engine: Engine,
                 placement: Optional[Placement] = None) -> None:
        """Wire one chain onto ``server``.

        ``placement`` defaults to the placement of a single-chain
        server; on a server hosting co-located chains the runner wires
        one network per installed placement.
        """
        self.server = server
        self.engine = engine
        if placement is None:
            placement = server.placement
        self.chain = placement.chain
        # Endpoints are fixed for the lifetime of the chain; migrations
        # move NFs, never the wire or the host application.
        self.ingress_device = placement.ingress
        self.egress_device = placement.egress
        self.stations: Dict[str, NFStation] = {
            nf.name: NFStation(nf, server.device(placement.device_of(nf.name)),
                               engine, on_dropped=self._on_nf_dropped)
            for nf in self.chain}
        #: Delivered packets, one ledger row each, recorded on departure.
        self.delivered = LatencyLedger()
        self._record_row = self.delivered.append_row
        #: Packets lost so far, counted per label: the ``dropped_at`` a
        #: dropped packet carries (the NF's name, or ``"wire"`` for
        #: ingress loss).  :attr:`dropped` is their sum.
        self.dropped_at: defaultdict[str, int] = defaultdict(int)
        #: Packets consumed on purpose by filtering NFs (not losses).
        self.filtered: int = 0
        #: Packets refused by the admission hook before entering the
        #: chain (degradation-ladder load shedding, not losses either).
        self.shed: int = 0
        #: Ingress admission hook: return False to shed the packet at
        #: the wire, before it counts toward ``arrived_bytes`` — the
        #: monitor (and therefore the planner) then sees *admitted*
        #: load, which is exactly what the chain must carry.
        self.admission: Optional[Callable[[Packet], bool]] = None
        #: Packets (and their bytes) drawn from the workload so far: a
        #: stream counts each packet just before its arrival runs.
        self.injected: int = 0
        self.injected_bytes: int = 0
        #: Bytes that have actually arrived on the wire so far (advances
        #: with the simulation clock; the monitor's rate estimator reads it).
        self.arrived_bytes: int = 0
        # Hot-path routing, resolved once: the chain's NF order is
        # immutable (migrations move NFs between devices, never reorder
        # the chain), so each hop's stations and action ids never
        # change after wiring.  Device *kinds* are read per packet —
        # migrations move stations between devices mid-run.
        self._wire_ingress = self.ingress_device is DeviceKind.SMARTNIC
        self._wire_egress = self.egress_device is DeviceKind.SMARTNIC
        self._pcie = server.pcie
        self._nic = server.nic
        # Port contention is constructor-set configuration; when it is
        # off, wire serialisation is pure arithmetic inlined at the
        # ingress/egress hops (the expression mirrors
        # ``SmartNIC.rx_time``'s fast path term for term).
        self._nic_contended = server.nic.model_port_contention
        self._port_rate_bps = server.nic.port_rate_bps
        # Pre-registered engine action ids for every per-packet hop
        # (see Engine.register_action); each is one frame whose
        # scheduled argument is the bare packet.
        self._ingress_id = engine.register_action(self._ingress)
        self._egress_at_endpoint_id = engine.register_action(
            self._egress_at_endpoint)
        self._depart_id = engine.register_action(self._depart)
        stations = [self.stations[nf.name] for nf in self.chain]
        arrive_ids = [engine.register_action(self._arrival_action(station))
                      for station in stations]
        self._enter = self._entry_action(stations[0], arrive_ids[0])
        self._enter_id = engine.register_action(self._enter)
        for station, next_station, arrive_id in zip(
                stations, stations[1:], arrive_ids[1:]):
            station.complete_with(self._completion_action(
                station, next_station, arrive_id))
        stations[-1].complete_with(self._exit_action(stations[-1]))

    # -- ingress ------------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Schedule a packet's wire arrival (call before engine.run)."""
        self.injected += 1
        self.injected_bytes += packet.size_bytes
        self.engine.call_at_id(packet.arrival_s, self._ingress_id, packet)

    def inject_stream(self, packets: Iterable[Packet]) -> None:
        """:meth:`inject` every packet of a time-ordered workload, lazily.

        The runner's prepare step feeds each chain's generator through
        here as one engine stream: a packet is drawn, and counted, just
        before its arrival runs, so the workload is never held in
        memory.  End-of-run accounting equals per-packet injection.
        """
        self.engine.call_at_id_many(self._ingress_id, self._drawn(packets))

    def _drawn(self, packets: Iterable[Packet]
               ) -> Iterator[Tuple[float, Packet]]:
        for packet in packets:
            self.injected += 1
            self.injected_bytes += packet.size_bytes
            yield packet.arrival_s, packet

    def _ingress(self, packet: Packet) -> None:
        """Enter the chain at the ingress endpoint.

        Wire-attached ingress (SmartNIC) pays Ethernet serialisation;
        host-side ingress (CPU: traffic originating from a local
        application) does not touch the wire.
        """
        if self.admission is not None and not self.admission(packet):
            # Shed at the wire: the NIC's flow table drops the packet
            # before any NF (or the load monitor) sees it.
            self.shed += 1
            return
        self.arrived_bytes += packet.size_bytes
        if self._wire_ingress:
            if self._nic_contended:
                t_wire = self._nic.rx_time(packet.size_bytes,
                                           self.engine.now_s)
            else:
                t_wire = ((packet.size_bytes + ETHERNET_OVERHEAD_BYTES)
                          * 8.0 / self._port_rate_bps)
            if t_wire < 0.0:
                raise SimulationError(
                    f"negative wire latency {t_wire} at ingress")
            packet.wire += t_wire
            self.engine.call_after_id(t_wire, self._enter_id, packet)
        else:
            self._enter(packet)

    # -- hops ---------------------------------------------------------------
    #
    # Each hop is one closure, built at wiring time.  A packet reaches a
    # station's device either directly or over PCIe (a crossing,
    # attributed to the packet's ``pcie`` component, then the station's
    # post-PCIe arrival action).  On arrival, a station on a device that
    # died before anyone paused it for evacuation has nowhere to put the
    # packet (paused stations buffer loss-free while a migration runs).
    # ``accept`` and ``record_crossing`` are looked up per packet: fault
    # injection wraps a station's ``accept`` after wiring.

    def _arrival_action(self, station: NFStation) -> Callable[[Packet], None]:
        """Deliver a packet that has crossed PCIe to ``station``.

        Stations are stable across migrations (rebind swaps the hosting
        device underneath the same station), so the packet is delivered
        to wherever the NF lives *now*, matching flow re-steering in
        UNO/OpenNF.
        """
        drops = self.dropped_at
        nf_name = station.profile.name

        def arrive(packet: Packet) -> None:
            if station.device._failed and not station._paused:
                drops[nf_name] += 1
            elif not station.accept(packet):
                drops[packet.dropped_at] += 1

        return arrive

    def _entry_action(self, station: NFStation,
                      arrive_id: int) -> Callable[[Packet], None]:
        """Move a packet from the ingress endpoint into the first NF."""
        here = self.ingress_device
        pcie = self._pcie
        engine = self.engine
        drops = self.dropped_at
        nf_name = station.profile.name

        def enter(packet: Packet) -> None:
            if station.device.kind is not here:
                t_pcie = pcie.record_crossing(packet.size_bytes,
                                              engine.now_s)
                if t_pcie < 0.0:
                    raise SimulationError(
                        f"negative PCIe latency {t_pcie} toward {nf_name!r}")
                packet.pcie += t_pcie
                engine.call_after_id(t_pcie, arrive_id, packet)
            elif station.device._failed and not station._paused:
                drops[nf_name] += 1
            elif not station.accept(packet):
                drops[packet.dropped_at] += 1

        return enter

    def _completion_action(self, station: NFStation,
                           next_station: NFStation,
                           arrive_id: int) -> Callable[[Packet], None]:
        """``station``'s completion: count, filter, move to the next NF."""
        profile = station.profile
        filters = profile.pass_rate < 1.0
        pcie = self._pcie
        engine = self.engine
        network = self
        drops = self.dropped_at
        next_name = next_station.profile.name

        def complete(packet: Packet) -> None:
            station.served_packets += 1
            if filters and filters_out(profile, packet):
                network.filtered += 1
            elif next_station.device.kind is not station.device.kind:
                t_pcie = pcie.record_crossing(packet.size_bytes,
                                              engine.now_s)
                if t_pcie < 0.0:
                    raise SimulationError(
                        f"negative PCIe latency {t_pcie} toward "
                        f"{next_name!r}")
                packet.pcie += t_pcie
                engine.call_after_id(t_pcie, arrive_id, packet)
            elif next_station.device._failed and not next_station._paused:
                drops[next_name] += 1
            elif not next_station.accept(packet):
                drops[packet.dropped_at] += 1

        return complete

    def _exit_action(self, station: NFStation) -> Callable[[Packet], None]:
        """The last NF's completion: count, filter, head for egress.

        Crossing PCIe first if the last NF is on the other device from
        the egress endpoint.
        """
        profile = station.profile
        filters = profile.pass_rate < 1.0
        egress_device = self.egress_device
        egress_at_endpoint = self._egress_at_endpoint
        egress_at_endpoint_id = self._egress_at_endpoint_id
        pcie = self._pcie
        engine = self.engine
        network = self

        def exit_chain(packet: Packet) -> None:
            station.served_packets += 1
            if filters and filters_out(profile, packet):
                network.filtered += 1
            elif station.device.kind is not egress_device:
                t_pcie = pcie.record_crossing(packet.size_bytes,
                                              engine.now_s)
                if t_pcie < 0.0:
                    raise SimulationError(
                        f"negative PCIe latency {t_pcie} at egress")
                packet.pcie += t_pcie
                engine.call_after_id(t_pcie, egress_at_endpoint_id, packet)
            else:
                egress_at_endpoint(packet)

        return exit_chain

    def _on_nf_dropped(self, packet: Packet, nf_name: str,
                       now_s: float) -> None:
        """A replayed pause-buffer packet overflowed the post-migration
        queue; account it like any other drop so conservation holds."""
        self.count_drops(nf_name)

    def count_drops(self, label: str, count: int = 1) -> None:
        """Account ``count`` packets lost at ``label`` (an NF or
        ``"wire"``): fault drains and recovery abandonment.  An
        empty drain adds no label."""
        if count:
            self.dropped_at[label] += count

    # -- egress -------------------------------------------------------------

    def _egress_at_endpoint(self, packet: Packet) -> None:
        """Leave the chain at the egress endpoint.

        Paying wire serialisation only when the egress endpoint is the
        NIC (host-terminated chains hand the packet to an application).
        """
        if self._wire_egress:
            if self._nic_contended:
                t_wire = self._nic.tx_time(packet.size_bytes,
                                           self.engine.now_s)
            else:
                t_wire = ((packet.size_bytes + ETHERNET_OVERHEAD_BYTES)
                          * 8.0 / self._port_rate_bps)
            if t_wire < 0.0:
                raise SimulationError(
                    f"negative wire latency {t_wire} at egress")
            packet.wire += t_wire
            self.engine.call_after_id(t_wire, self._depart_id, packet)
        else:
            self._depart(packet)

    def _depart(self, packet: Packet) -> None:
        """Final hop: stamp the departure time and record the packet.

        Nothing writes to a packet after this hop, so its ledger row,
        written last, is final; the packet object is then let go.  The
        row is :meth:`LatencyLedger.record`'s, written inline.
        """
        packet.departure_s = now = self.engine.now_s
        self._record_row(pack_row(
            packet.seq, packet.size_bytes, packet.flow_id, packet.arrival_s,
            now, packet.wire, packet.processing, packet.queueing,
            packet.pcie))

    # -- accounting --------------------------------------------------------------

    def telemetry_sample(self) -> Tuple[int, float]:
        """The monitor's view: (cumulative arrived bytes, sample time).

        The runner derives its offered-load estimate from consecutive
        samples.  Fault injection overrides this method to model
        telemetry dropout — a frozen sample with an old timestamp — so
        the control plane can detect and suppress stale readings.
        """
        return self.arrived_bytes, self.engine.now_s

    @property
    def dropped(self) -> int:
        """Packets lost so far: the sum of :attr:`dropped_at`."""
        return sum(self.dropped_at.values())

    def in_flight(self) -> int:
        """Packets injected with no final outcome yet."""
        return (self.injected - len(self.delivered) - self.dropped
                - self.filtered - self.shed)

    def release(self) -> None:
        """Let go of every packet the data plane holds (end of a run).

        Empties the delivered ledger in place (the departure hop holds
        its bound row append) and every station's queue and pause
        buffer.  Dropped, filtered and shed packets were never held;
        their counts stay, like the other counters, but the emptied
        ledger no longer accounts for them.
        """
        self.delivered.clear()
        for station in self.stations.values():
            station.release()

    def check_conservation(self) -> None:
        """Assert injected == delivered + dropped + shed + in-flight (>= 0)."""
        if self.in_flight() < 0:
            raise SimulationError(
                f"packet conservation violated: injected={self.injected}, "
                f"delivered={len(self.delivered)}, dropped={self.dropped}, "
                f"filtered={self.filtered}, shed={self.shed}")
