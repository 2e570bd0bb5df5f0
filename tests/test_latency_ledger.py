"""Latency decomposition: packet-borne components and the ledger."""

import pytest

from repro.errors import SimulationError
from repro.sim.latency import COMPONENTS, LatencyLedger, add_latency
from repro.traffic.packet import Packet


def _packet(seq=0):
    return Packet(seq=seq, size_bytes=64, arrival_s=0.0)


class TestRecord:
    def test_add_accumulates(self):
        packet = _packet()
        add_latency(packet, "pcie", 1e-5)
        add_latency(packet, "pcie", 2e-5)
        assert packet.pcie == pytest.approx(3e-5)

    def test_total_is_component_sum(self):
        packet = _packet()
        add_latency(packet, "wire", 1e-6)
        add_latency(packet, "processing", 2e-6)
        add_latency(packet, "queueing", 3e-6)
        add_latency(packet, "pcie", 4e-6)
        total = sum(getattr(packet, c) for c in COMPONENTS)
        assert total == pytest.approx(1e-5)

    def test_unknown_component_rejected(self):
        with pytest.raises(SimulationError):
            add_latency(_packet(), "teleport", 1e-6)

    def test_negative_contribution_rejected(self):
        with pytest.raises(SimulationError):
            add_latency(_packet(), "pcie", -1e-9)


class TestLedger:
    def test_record_for_returns_the_indexed_packet(self):
        ledger = LatencyLedger()
        packet = _packet(7)
        ledger.index([packet])
        first = ledger.record_for(7)
        second = ledger.record_for(7)
        assert first is second is packet
        assert len(ledger) == 1

    def test_record_for_unknown_seq_rejected(self):
        with pytest.raises(SimulationError):
            LatencyLedger().record_for(7)

    def test_records_sorted_by_seq(self):
        ledger = LatencyLedger()
        ledger.index([_packet(3), _packet(1), _packet(2)])
        assert [r.seq for r in ledger.records()] == [1, 2, 3]

    def test_component_means(self):
        ledger = LatencyLedger()
        ledger.index([_packet(0), _packet(1)])
        add_latency(ledger.record_for(0), "pcie", 2e-5)
        add_latency(ledger.record_for(1), "pcie", 4e-5)
        means = ledger.component_means()
        assert means["pcie"] == pytest.approx(3e-5)
        assert means["wire"] == 0.0

    def test_component_means_subset(self):
        ledger = LatencyLedger()
        ledger.index([_packet(0), _packet(1)])
        add_latency(ledger.record_for(0), "pcie", 2e-5)
        add_latency(ledger.record_for(1), "pcie", 8e-5)
        means = ledger.component_means(seqs=[1])
        assert means["pcie"] == pytest.approx(8e-5)

    def test_component_means_empty(self):
        means = LatencyLedger().component_means()
        assert set(means) == set(COMPONENTS)
        assert all(v == 0.0 for v in means.values())
