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

from typing import Callable, Dict, List, Optional, Tuple

from ..chain.nf import DeviceKind
from ..chain.placement import Placement
from ..devices.server import Server
from ..errors import SimulationError
from ..traffic.packet import Packet
from ..units import ETHERNET_OVERHEAD_BYTES
from .engine import Engine
from .nfinstance import NFStation


class ChainNetwork:
    """The data plane: stations plus inter-station forwarding."""

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
        self.stations: Dict[str, NFStation] = {}
        for nf in self.chain:
            device = server.device(placement.device_of(nf.name))
            self.stations[nf.name] = NFStation(
                nf, device, engine, self._on_nf_complete,
                on_filtered=self._on_nf_filtered,
                on_dropped=self._on_nf_dropped)
        self.delivered: List[Packet] = []
        self.dropped: List[Packet] = []
        #: Packets consumed on purpose by filtering NFs (not losses).
        self.filtered: List[Packet] = []
        #: Packets refused by the admission hook before entering the
        #: chain (degradation-ladder load shedding, not losses either).
        self.shed: List[Packet] = []
        #: Ingress admission hook: return False to shed the packet at
        #: the wire, before it counts toward ``arrived_bytes`` — the
        #: monitor (and therefore the planner) then sees *admitted*
        #: load, which is exactly what the chain must carry.
        self.admission: Optional[Callable[[Packet], bool]] = None
        self.injected: int = 0
        self.injected_bytes: int = 0
        #: Bytes that have actually arrived on the wire so far (advances
        #: with the simulation clock; the monitor's rate estimator reads it).
        self.arrived_bytes: int = 0
        # Hot-path routing, precomputed once: the chain's NF order is
        # immutable (migrations move NFs between devices, never reorder
        # the chain), so per-NF hop numbers, successor names, station
        # objects, and arrival thunks never change after wiring.
        self._first_nf = self.chain[0].name
        self._wire_ingress = self.ingress_device is DeviceKind.SMARTNIC
        self._wire_egress = self.egress_device is DeviceKind.SMARTNIC
        self._routes: Dict[str, Tuple[int, Optional[str], NFStation]] = {}
        for position, nf in enumerate(self.chain):
            next_name = (self.chain[position + 1].name
                         if position + 1 < len(self.chain) else None)
            self._routes[nf.name] = (position + 1, next_name,
                                     self.stations[nf.name])
        # Pre-registered engine action ids for every per-packet hop
        # (see Engine.register_action); the post-PCIe arrival thunks
        # are one fused closure per NF so the scheduled argument stays
        # the bare packet.
        self._pcie = server.pcie
        self._nic = server.nic
        # Port contention is constructor-set configuration; when it is
        # off, wire serialisation is pure arithmetic inlined at the
        # ingress/egress hops (the expression mirrors
        # ``SmartNIC.rx_time``'s fast path term for term).
        self._nic_contended = server.nic.model_port_contention
        self._port_rate_bps = server.nic.port_rate_bps
        self._ingress_id = engine.register_action(self._ingress)
        self._egress_at_endpoint_id = engine.register_action(
            self._egress_at_endpoint)
        self._depart_id = engine.register_action(self._depart)
        self._arrive_ids: Dict[str, int] = {
            name: engine.register_action(self._arrival_action(station))
            for name, station in self.stations.items()}
        # Registered after the arrival ids it closes over (action ids
        # are opaque table indices; registration order carries no
        # ordering semantics).
        self._forward_from_wire_id = engine.register_action(
            self._wire_arrival_action())
        # Fused completion path: each station gets a closure that knows
        # its successor (the chain never reorders), so an NF completion
        # routes in one frame instead of dispatching through the
        # generic name-keyed ``_on_nf_complete`` -> ``_forward`` pair.
        # Device *kinds* are still read per packet — migrations move
        # stations between devices mid-run.
        for nf in self.chain:
            hop, next_name, station = self._routes[nf.name]
            self.stations[nf.name].on_complete = self._completion_for(
                hop, next_name, station)

    # -- ingress ------------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Schedule a packet's wire arrival (call before engine.run)."""
        self.injected += 1
        self.injected_bytes += packet.size_bytes
        self.engine.call_at_id(packet.arrival_s, self._ingress_id, packet)

    def inject_batch(self, packets: List[Packet]) -> None:
        """Bulk :meth:`inject`: one scheduler call for a whole epoch.

        The runner's prepare step feeds entire arrival schedules
        through here; accounting is identical to per-packet injection.
        """
        self.injected += len(packets)
        self.injected_bytes += sum(p.size_bytes for p in packets)
        self.engine.call_at_id_many(
            self._ingress_id, ((p.arrival_s, p) for p in packets))

    def _ingress(self, packet: Packet) -> None:
        """Enter the chain at the ingress endpoint.

        Wire-attached ingress (SmartNIC) pays Ethernet serialisation;
        host-side ingress (CPU: traffic originating from a local
        application) does not touch the wire.
        """
        if self.admission is not None and not self.admission(packet):
            # Shed at the wire: the NIC's flow table drops the packet
            # before any NF (or the load monitor) sees it.
            packet.dropped_at = "ingress-shed"
            self.shed.append(packet)
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
            self.engine.call_after_id(t_wire, self._forward_from_wire_id,
                                      packet)
        else:
            self._forward(packet, DeviceKind.CPU, self._first_nf)

    def _forward_from_wire(self, packet: Packet) -> None:
        """Continue ingress after NIC wire serialisation completes."""
        self._forward(packet, DeviceKind.SMARTNIC, self._first_nf)

    def _wire_arrival_action(self) -> Callable[[Packet], None]:
        """Fused :meth:`_forward_from_wire`: one frame per wire arrival.

        Same semantics as forwarding from the SmartNIC to the first NF,
        with the station resolved at wiring time (device kind stays a
        per-packet read — the first NF can migrate).
        """
        station = self.stations[self._first_nf]
        arrive_id = self._arrive_ids[self._first_nf]
        pcie = self._pcie
        engine = self.engine
        dropped_append = self.dropped.append
        nf_name = station.profile.name

        def forward_from_wire(packet: Packet) -> None:
            if station.device.kind is not DeviceKind.SMARTNIC:
                t_pcie = pcie.record_crossing(packet.size_bytes,
                                              engine.now_s)
                if t_pcie < 0.0:
                    raise SimulationError(
                        f"negative PCIe latency {t_pcie} "
                        f"toward {station.profile.name!r}")
                packet.pcie += t_pcie
                engine.call_after_id(t_pcie, arrive_id, packet)
            elif station.device._failed and not station._paused:
                packet.dropped_at = nf_name
                dropped_append(packet)
            elif not station.accept(packet):
                dropped_append(packet)

        return forward_from_wire

    def _arrival_action(self, station: NFStation) -> Callable[[Packet], None]:
        """Fused post-PCIe arrival thunk: :meth:`_arrive_station` in one
        frame, with the station (stable across migrations) and the drop
        sink bound at wiring time."""
        dropped_append = self.dropped.append
        nf_name = station.profile.name

        def arrive(packet: Packet) -> None:
            if station.device._failed and not station._paused:
                packet.dropped_at = nf_name
                dropped_append(packet)
            elif not station.accept(packet):
                dropped_append(packet)

        return arrive

    # -- forwarding -------------------------------------------------------------

    def _forward(self, packet: Packet, from_device: DeviceKind,
                 nf_name: str) -> None:
        """Move a packet from ``from_device`` to NF ``nf_name``."""
        station = self.stations[nf_name]
        if station.device.kind is not from_device:
            t_pcie = self._pcie.record_crossing(packet.size_bytes,
                                                self.engine.now_s)
            if t_pcie < 0.0:
                raise SimulationError(
                    f"negative PCIe latency {t_pcie} toward {nf_name!r}")
            packet.pcie += t_pcie
            self.engine.call_after_id(t_pcie, self._arrive_ids[nf_name],
                                      packet)
        else:
            self._arrive_station(station, packet)

    def _arrive(self, nf_name: str, packet: Packet) -> None:
        """Deliver a packet to NF ``nf_name`` (name-keyed entry point)."""
        self._arrive_station(self.stations[nf_name], packet)

    def _arrive_station(self, station: NFStation, packet: Packet) -> None:
        # Station objects are stable across migrations (rebind swaps the
        # hosting device underneath the same NFStation), so the post-PCIe
        # arrival thunks bind the station itself.  The device may have
        # changed while the packet was in flight over PCIe (migration
        # completed); that is fine — the packet is delivered to wherever
        # the NF lives *now*, matching flow re-steering in UNO/OpenNF.
        if station.device._failed and not station._paused:
            # The hosting device died and nobody has paused the station
            # for evacuation yet: the packet has nowhere to go.  (Paused
            # stations buffer loss-free while the migration runs.)
            packet.dropped_at = station.profile.name
            self.dropped.append(packet)
            return
        if not station.accept(packet):
            self.dropped.append(packet)

    def _on_nf_filtered(self, packet: Packet, nf_name: str,
                        now_s: float) -> None:
        """An NF consumed the packet (firewall block etc.)."""
        self.filtered.append(packet)

    def _on_nf_dropped(self, packet: Packet, nf_name: str,
                       now_s: float) -> None:
        """A replayed pause-buffer packet overflowed the post-migration
        queue; account it like any other drop so conservation holds."""
        self.dropped.append(packet)

    def _on_nf_complete(self, packet: Packet, nf_name: str, now_s: float) -> None:
        """Station finished serving; route to next NF or egress."""
        hop, next_name, station = self._routes[nf_name]
        here = station.device.kind
        if next_name is not None:
            packet.hop = hop
            self._forward(packet, here, next_name)
        else:
            self._egress(packet, here)

    def _completion_for(self, hop: int, next_name: Optional[str],
                        station: NFStation) -> Callable[[Packet, str, float],
                                                        None]:
        """Build the fused per-station completion callback.

        Semantically identical to :meth:`_on_nf_complete`, with the
        route lookup resolved at wiring time and the inter-NF hop
        inlined.
        """
        if next_name is None:
            egress = self._egress

            def complete_last(packet: Packet, nf_name: str,
                              now_s: float) -> None:
                egress(packet, station.device.kind)

            return complete_last
        next_station = self.stations[next_name]
        arrive_id = self._arrive_ids[next_name]
        pcie = self._pcie
        engine = self.engine
        dropped_append = self.dropped.append
        next_nf_name = next_station.profile.name

        def complete(packet: Packet, nf_name: str, now_s: float) -> None:
            packet.hop = hop
            if next_station.device.kind is not station.device.kind:
                t_pcie = pcie.record_crossing(packet.size_bytes,
                                              engine.now_s)
                if t_pcie < 0.0:
                    raise SimulationError(
                        f"negative PCIe latency {t_pcie} "
                        f"toward {next_station.profile.name!r}")
                packet.pcie += t_pcie
                engine.call_after_id(t_pcie, arrive_id, packet)
            elif next_station.device._failed and not next_station._paused:
                packet.dropped_at = next_nf_name
                dropped_append(packet)
            elif not next_station.accept(packet):
                dropped_append(packet)

        return complete

    # -- egress -------------------------------------------------------------

    def _egress(self, packet: Packet, from_device: DeviceKind) -> None:
        """Leave the chain at the egress endpoint.

        Crossing PCIe first if the last NF is on the other device, then
        paying wire serialisation only when the egress endpoint is the
        NIC (host-terminated chains hand the packet to an application).
        """
        if from_device is not self.egress_device:
            t_pcie = self._pcie.record_crossing(packet.size_bytes,
                                                self.engine.now_s)
            if t_pcie < 0.0:
                raise SimulationError(
                    f"negative PCIe latency {t_pcie} at egress")
            packet.pcie += t_pcie
            self.engine.call_after_id(t_pcie, self._egress_at_endpoint_id,
                                      packet)
            return
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

    def _egress_at_endpoint(self, packet: Packet) -> None:
        """Continue egress once the packet has crossed to the endpoint."""
        self._egress(packet, self.egress_device)

    def _depart(self, packet: Packet) -> None:
        """Final hop: stamp the departure time and deliver."""
        packet.departure_s = self.engine.now_s
        self.delivered.append(packet)

    # -- accounting --------------------------------------------------------------

    def telemetry_sample(self) -> Tuple[int, float]:
        """The monitor's view: (cumulative arrived bytes, sample time).

        The runner derives its offered-load estimate from consecutive
        samples.  Fault injection overrides this method to model
        telemetry dropout — a frozen sample with an old timestamp — so
        the control plane can detect and suppress stale readings.
        """
        return self.arrived_bytes, self.engine.now_s

    def in_flight(self) -> int:
        """Packets injected with no final outcome yet."""
        return (self.injected - len(self.delivered)
                - len(self.dropped) - len(self.filtered)
                - len(self.shed))

    def release(self) -> None:
        """Let go of every packet the data plane holds (end of a run).

        Empties the outcome lists in place (the fused hop closures hold
        their bound ``append``) and every station's queue and pause
        buffer.  The counters stay; the outcome lists no longer account
        for them.
        """
        for outcome in (self.delivered, self.dropped, self.filtered,
                        self.shed):
            outcome.clear()
        for station in self.stations.values():
            station.release()

    def check_conservation(self) -> None:
        """Assert injected == delivered + dropped + shed + in-flight (>= 0)."""
        if self.in_flight() < 0:
            raise SimulationError(
                f"packet conservation violated: injected={self.injected}, "
                f"delivered={len(self.delivered)}, dropped={len(self.dropped)}, "
                f"filtered={len(self.filtered)}, shed={len(self.shed)}")
