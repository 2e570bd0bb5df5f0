"""Property-based tests: engine determinism and packet conservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.scenarios import figure1
from repro.sim.engine import Engine
from repro.sim.network import ChainNetwork
from repro.telemetry.metrics import LatencySummary, percentile
from repro.traffic.packet import Packet
from repro.units import gbps


class TestEngineOrdering:
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_execute_in_nondecreasing_time_order(self, times):
        engine = Engine()
        executed = []
        for t in times:
            engine.at(t, lambda t=t: executed.append(engine.now_s))
        engine.run()
        assert executed == sorted(executed)
        assert len(executed) == len(times)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_equal_times_preserve_insertion_order(self, times):
        engine = Engine()
        executed = []
        for index, t in enumerate(times):
            engine.at(round(t, 2), lambda i=index: executed.append(i))
        engine.run()
        by_time = sorted(range(len(times)),
                         key=lambda i: (round(times[i], 2), i))
        assert executed == by_time


class TestConservation:
    @given(st.integers(min_value=1, max_value=120),
           st.floats(min_value=5e-7, max_value=5e-6),
           st.sampled_from([64, 256, 1500]))
    @settings(max_examples=20, deadline=None)
    def test_injected_equals_delivered_plus_dropped_plus_inflight(
            self, count, gap_s, size):
        server = figure1().build_server()
        server.refresh_demand(gbps(1.8))
        engine = Engine()
        network = ChainNetwork(server, engine)
        for i in range(count):
            network.inject(Packet(seq=i, size_bytes=size,
                                  arrival_s=i * gap_s))
        engine.run()
        network.check_conservation()
        assert network.injected == count
        assert len(network.delivered) + network.dropped == count
        assert network.in_flight() == 0

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_latency_always_positive(self, count):
        server = figure1().build_server()
        server.refresh_demand(gbps(1.0))
        engine = Engine()
        network = ChainNetwork(server, engine)
        for i in range(count):
            network.inject(Packet(seq=i, size_bytes=256,
                                  arrival_s=i * 2e-6))
        engine.run()
        assert all(p.latency_s > 0 for p in network.delivered)


class TestMetricsProperties:
    samples = st.lists(st.floats(min_value=1e-9, max_value=1.0),
                       min_size=1, max_size=200)

    @given(samples)
    @settings(max_examples=80, deadline=None)
    def test_summary_bounds(self, values):
        summary = LatencySummary.from_samples(values)
        # The mean of n identical floats can differ from them by one
        # ulp (sum/n rounding), hence the relative slack on that bound.
        slack = 1e-12
        assert summary.min_s * (1 - slack) <= summary.mean_s \
            <= summary.max_s * (1 + slack)
        assert summary.min_s <= summary.p50_s <= summary.p99_s <= \
            summary.max_s

    @given(samples, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_percentile_within_range(self, values, q):
        result = percentile(sorted(values), q)
        assert min(values) <= result <= max(values)

    @given(samples)
    @settings(max_examples=80, deadline=None)
    def test_percentile_monotone_in_q(self, values):
        ordered = sorted(values)
        results = [percentile(ordered, q / 10) for q in range(11)]
        assert results == sorted(results)
