"""Latency decomposition: packet-borne components and the ledger.

The ledger records a packet once its latency is final and stores a
snapshot, so what it hands back equals the recorded packet without
being it.
"""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.harness.scenarios import (FIGURE1_BASE_LOAD_BPS,
                                     FIGURE1_SATURATION_BPS,
                                     datacenter_inline, enterprise_edge,
                                     figure1, table1_chain)
from repro.sim.latency import COMPONENTS, ROW_FIELDS, LatencyLedger, add_latency
from repro.sim.network import ChainNetwork
from repro.sim.runner import SimulationRunner
from repro.telemetry.metrics import LatencySummary, ThroughputSummary
from repro.traffic.generators import (ConstantBitRate, OnOffBursts,
                                      PoissonArrivals)
from repro.traffic.packet import FixedSize, IMixSize, Packet, UniformSize
from repro.units import gbps


def _packet(seq=0, **fields):
    fields.setdefault("departure_s", 1e-6)
    return Packet(seq=seq, size_bytes=64, arrival_s=0.0, **fields)


def _ledger(*packets):
    ledger = LatencyLedger()
    for packet in packets:
        ledger.record(packet)
    return ledger


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
    def test_record_for_equals_the_recorded_packet(self):
        packet = _packet(7, flow_id=3, departure_s=2e-5)
        add_latency(packet, "wire", 1e-6)
        ledger = _ledger(packet)
        first = ledger.record_for(7)
        assert first == packet
        assert first is not packet
        assert ledger.record_for(7) == first
        assert len(ledger) == 1

    def test_a_write_after_recording_is_not_seen(self):
        packet = _packet(7)
        ledger = _ledger(packet)
        add_latency(packet, "pcie", 1e-5)
        assert ledger.record_for(7).pcie == 0.0

    def test_an_undeparted_packet_is_rejected(self):
        with pytest.raises(SimulationError):
            LatencyLedger().record(_packet(departure_s=None))

    def test_record_for_unknown_seq_rejected(self):
        with pytest.raises(SimulationError):
            LatencyLedger().record_for(7)

    def test_records_sorted_by_seq(self):
        ledger = _ledger(_packet(3), _packet(1), _packet(2))
        assert [r.seq for r in ledger.records()] == [1, 2, 3]

    def test_component_means(self):
        packets = [_packet(0), _packet(1)]
        add_latency(packets[0], "pcie", 2e-5)
        add_latency(packets[1], "pcie", 4e-5)
        means = _ledger(*packets).component_means()
        assert means["pcie"] == pytest.approx(3e-5)
        assert means["wire"] == 0.0

    def test_component_means_subset(self):
        packets = [_packet(0), _packet(1)]
        add_latency(packets[0], "pcie", 2e-5)
        add_latency(packets[1], "pcie", 8e-5)
        means = _ledger(*packets).component_means(seqs=[1])
        assert means["pcie"] == pytest.approx(8e-5)

    def test_component_means_unknown_seq_rejected(self):
        with pytest.raises(SimulationError):
            _ledger(_packet(0)).component_means(seqs=[5])

    def test_component_means_empty(self):
        means = LatencyLedger().component_means()
        assert set(means) == set(COMPONENTS)
        assert all(v == 0.0 for v in means.values())

    def test_component_means_sum_left_to_right(self):
        # Plain left-to-right float addition, not compensated summation:
        # 1.0 + 1e-16 + 1e-16 rounds back to 1.0 at each step.
        values = [1.0, 1e-16, 1e-16]
        packets = [_packet(i, wire=v) for i, v in enumerate(values)]
        means = _ledger(*packets).component_means()
        assert means["wire"] == (0.0 + 1.0 + 1e-16 + 1e-16) / 3


class TestSequenceView:
    def test_len_bool_iteration_and_indexing(self):
        packets = [_packet(i, flow_id=i % 2, departure_s=i * 1e-6)
                   for i in range(4)]
        ledger = _ledger(*packets)
        assert len(ledger) == 4 and ledger
        assert not LatencyLedger()
        assert list(ledger) == packets
        assert ledger[0] == packets[0]
        assert ledger[-1] == packets[-1]
        assert ledger[-4] == packets[0]
        with pytest.raises(IndexError):
            ledger[4]
        with pytest.raises(IndexError):
            ledger[-5]

    def test_pop_and_clear(self):
        packets = [_packet(i) for i in range(3)]
        ledger = _ledger(*packets)
        assert ledger.pop() == packets[2]
        assert list(ledger) == packets[:2]
        ledger.clear()
        assert len(ledger) == 0
        with pytest.raises(IndexError):
            ledger.pop()

    def test_column_and_row_width(self):
        ledger = _ledger(_packet(5, departure_s=1e-6))
        assert list(ledger.column("seq")) == [5.0]
        assert list(ledger.column("departure_s")) == [1e-6]
        assert ledger.column("seq").itemsize * len(ROW_FIELDS) == 72


def _run_recording_departures(build_runner):
    """Build a runner and run it, recording every packet ``_depart`` sees."""
    departed = []
    depart = ChainNetwork._depart

    def recording(network, packet):
        depart(network, packet)
        departed.append(packet)

    with mock.patch.object(ChainNetwork, "_depart", recording):
        runner = build_runner()
        runner.run()
    return runner, departed


def _reference_collect(packets, horizon):
    """The per-packet collect loop the ledger's column pass replaced."""
    latencies = []
    wire = processing = queueing = pcie = 0.0
    window_packets = window_bytes = 0
    for packet in packets:
        departure_s = packet.departure_s
        latencies.append(departure_s - packet.arrival_s)
        wire += packet.wire
        processing += packet.processing
        queueing += packet.queueing
        pcie += packet.pcie
        if departure_s <= horizon:
            window_packets += 1
            window_bytes += packet.size_bytes
    count = len(packets)
    means = ({"wire": wire / count, "processing": processing / count,
              "queueing": queueing / count, "pcie": pcie / count}
             if count else dict.fromkeys(COMPONENTS, 0.0))
    return (LatencySummary.from_samples(latencies) if latencies else None,
            ThroughputSummary(delivered_packets=window_packets,
                              delivered_bytes=window_bytes,
                              window_s=horizon),
            means)


SCENARIOS = {"figure1": figure1, "table1": table1_chain,
             "datacenter": datacenter_inline, "edge": enterprise_edge}
SIZES = {"64": lambda: FixedSize(64), "1500": lambda: FixedSize(1500),
         "uniform": UniformSize, "imix": IMixSize}


def _generator(process, rate_bps, sizes, duration_s, seed):
    if process == "cbr":
        return ConstantBitRate(rate_bps, sizes, duration_s, seed=seed)
    if process == "poisson":
        return PoissonArrivals(rate_bps, sizes, duration_s, seed=seed)
    return OnOffBursts(rate_bps / 4, rate_bps * 1.5, sizes, duration_s,
                       mean_dwell_s=duration_s / 4, seed=seed)


class TestDataPlaneLedger:
    @given(scenario=st.sampled_from(sorted(SCENARIOS)),
           sizes=st.sampled_from(sorted(SIZES)),
           rate_gbps=st.floats(min_value=0.2, max_value=3.0),
           process=st.sampled_from(["cbr", "poisson", "onoff"]),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_delivered_rows_equal_the_departed_packets(
            self, scenario, sizes, rate_gbps, process, seed):
        server = SCENARIOS[scenario]().build_server()
        generator = _generator(process, gbps(rate_gbps), SIZES[sizes](),
                               4e-4, seed)
        runner, departed = _run_recording_departures(
            lambda: SimulationRunner(server, generator))
        assert departed or not runner.network.delivered
        delivered = runner.network.delivered
        # In departure order, field for field.
        assert list(delivered) == departed
        assert [delivered[i] for i in range(-len(departed), 0)] == departed
        # The column pass equals the per-packet loop, bit for bit.
        result = runner.collect()
        latency, throughput, means = _reference_collect(
            departed, generator.duration_s)
        assert repr(result.latency) == repr(latency)
        assert result.throughput == throughput
        assert repr(result.component_means_s) == repr(means)
        runner.release()
        assert not delivered


def _drained_footprint(rate_bps):
    """(traced bytes held, delivered, dropped) of a drained 64 B
    Figure 1 run at ``rate_bps`` for 3 ms, before its release."""
    def run():
        runner = SimulationRunner(
            figure1().build_server(),
            ConstantBitRate(rate_bps, FixedSize(64), 3e-3))
        runner.prepare()
        before = tracemalloc.get_traced_memory()[0]
        runner.engine.run(until_s=runner._horizon_s + runner.drain_grace_s)
        held = tracemalloc.get_traced_memory()[0] - before
        network = runner.network
        outcome = held, len(network.delivered), network.dropped
        runner.release()
        return outcome

    run()  # warm any lazily built class state
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        return run()
    finally:
        if started:
            tracemalloc.stop()


class TestFootprint:
    def test_a_delivered_packet_costs_at_most_100_bytes(self):
        held, delivered, __ = _drained_footprint(FIGURE1_BASE_LOAD_BPS)
        assert delivered > 5000
        assert held / delivered <= 100

    def test_an_overloaded_run_holds_no_dropped_packet(self):
        # Past saturation the noop arm rides overload out by dropping:
        # a drop is counted, so it costs no memory per packet.
        held, delivered, dropped = _drained_footprint(FIGURE1_SATURATION_BPS)
        assert held / delivered <= 100
        assert dropped > 5000
