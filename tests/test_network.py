"""ChainNetwork: routing, crossings, endpoints, conservation."""

import pytest

from repro.chain import catalog
from repro.chain.builder import ChainBuilder
from repro.chain.nf import DeviceKind
from repro.devices.server import PAPER_TESTBED
from repro.sim.engine import Engine
from repro.sim.latency import COMPONENTS
from repro.sim.network import ChainNetwork
from repro.traffic.packet import Packet

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC


def build_network(placement):
    server = PAPER_TESTBED.build()
    server.install(placement)
    engine = Engine()
    return server, engine, ChainNetwork(server, engine)


def run_one_packet(network, engine, size=256):
    packet = Packet(seq=0, size_bytes=size, arrival_s=0.0)
    network.inject(packet)
    engine.run()
    return packet


@pytest.fixture
def fig1_net(fig1_placement):
    return build_network(fig1_placement)


class TestDelivery:
    def test_packet_traverses_whole_chain(self, fig1_net):
        server, engine, network = fig1_net
        packet = run_one_packet(network, engine)
        assert packet.delivered
        assert len(network.delivered) == 1

    def test_crossings_match_placement(self, fig1_net):
        server, engine, network = fig1_net
        run_one_packet(network, engine)
        assert server.pcie.stats.crossings == \
            server.placement.pcie_crossings() == 3

    def test_latency_equals_component_sum(self, fig1_net):
        server, engine, network = fig1_net
        packet = run_one_packet(network, engine)
        assert packet.latency_s == pytest.approx(
            sum(getattr(packet, c) for c in COMPONENTS))

    def test_pcie_component_matches_crossing_times(self, fig1_net):
        server, engine, network = fig1_net
        packet = run_one_packet(network, engine)
        assert packet.pcie == pytest.approx(
            3 * server.pcie.crossing_time(256))

    def test_processing_component_sums_all_nfs(self, fig1_net):
        server, engine, network = fig1_net
        packet = run_one_packet(network, engine)
        expected = sum(
            server.device(server.placement.device_of(nf.name))
                  .service_time(nf, 256)
            for nf in server.placement.chain)
        assert packet.processing == pytest.approx(expected)


class TestEndpoints:
    def test_host_terminated_chain_has_no_egress_wire(self, fig1_placement):
        # fig1 egress is CPU: exactly one wire serialisation (ingress).
        server, engine, network = build_network(fig1_placement)
        packet = run_one_packet(network, engine)
        from repro.units import wire_time
        assert packet.wire == pytest.approx(
            wire_time(256, server.nic.port_rate_bps))

    def test_bump_in_wire_pays_wire_twice(self):
        _, placement = (ChainBuilder("b", profiles=catalog.FIGURE1_SCENARIO)
                        .nic("monitor").build())
        server, engine, network = build_network(placement)
        packet = run_one_packet(network, engine)
        from repro.units import wire_time
        assert packet.wire == pytest.approx(
            2 * wire_time(256, server.nic.port_rate_bps))

    def test_host_originated_chain_skips_ingress_wire(self):
        _, placement = (ChainBuilder("o", profiles=catalog.FIGURE1_SCENARIO)
                        .cpu("monitor").build(ingress=C, egress=C))
        server, engine, network = build_network(placement)
        packet = run_one_packet(network, engine)
        assert packet.wire == 0.0
        assert packet.pcie == 0.0

    def test_cpu_tail_to_nic_egress_crosses_back(self):
        _, placement = (ChainBuilder("t", profiles=catalog.FIGURE1_SCENARIO)
                        .cpu("monitor").build())
        server, engine, network = build_network(placement)
        run_one_packet(network, engine)
        assert server.pcie.stats.crossings == 2  # in and back out


class TestConservation:
    def test_counters_balance_after_full_drain(self, fig1_net):
        server, engine, network = fig1_net
        for i in range(10):
            network.inject(Packet(seq=i, size_bytes=256,
                                  arrival_s=i * 1e-5))
        engine.run()
        network.check_conservation()
        assert network.injected == 10
        assert len(network.delivered) == 10
        assert network.in_flight() == 0

    def test_in_flight_positive_mid_run(self, fig1_net):
        server, engine, network = fig1_net
        network.inject(Packet(seq=0, size_bytes=256, arrival_s=0.0))
        engine.run(until_s=1e-6)  # long before chain latency elapses
        assert network.in_flight() == 1

    def test_arrived_bytes_advances_with_clock(self, fig1_net):
        server, engine, network = fig1_net
        network.inject(Packet(seq=0, size_bytes=256, arrival_s=0.0))
        network.inject(Packet(seq=1, size_bytes=256, arrival_s=1.0))
        assert network.arrived_bytes == 0  # nothing has arrived yet
        engine.run(until_s=0.5)
        assert network.arrived_bytes == 256
