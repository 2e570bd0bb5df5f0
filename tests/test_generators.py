"""Arrival-process generators: rates, determinism, shapes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.schedule import ChaosFault
from repro.errors import ConfigurationError
from repro.soak.fuzzer import SoakCase
from repro.soak.scenario import _case_profile
from repro.traffic.flows import FlowTable
from repro.traffic.generators import (ConstantBitRate, OnOffBursts,
                                      PoissonArrivals, RampArrivals,
                                      TrafficGenerator, cbr_64_to_1500)
from repro.traffic.packet import FixedSize
from repro.traffic.patterns import ProfiledArrivals, constant, spike
from repro.units import bits, gbps, mbps

#: Long enough that every stream holds more than 4096 packets.
_ORACLE_DURATION_S = 0.02


def realised_rate_bps(packets, duration_s):
    return sum(bits(p.size_bytes) for p in packets) / duration_s


def _overlay_profile():
    overload = ChaosFault(kind="overload", at_s=0.009, duration_s=0.005,
                          magnitude=2.4e9)
    case = SoakCase(seed=5, duration_s=_ORACLE_DURATION_S, packet_bytes=512,
                    base_bps=gbps(1.2), peak_bps=gbps(1.8),
                    faults=(overload,))
    return _case_profile(case, [overload])


def _overlays_profile():
    """Two overlapping windows over the 4-12 ms spike: the first lifts
    the base but stays under the peak, the second tops the peak."""
    under = ChaosFault(kind="overload", at_s=0.003, duration_s=0.006,
                       magnitude=1.5e9)
    over = ChaosFault(kind="overload", at_s=0.007, duration_s=0.008,
                      magnitude=2.4e9)
    case = SoakCase(seed=5, duration_s=_ORACLE_DURATION_S, packet_bytes=512,
                    base_bps=gbps(1.2), peak_bps=gbps(1.8),
                    faults=(under, over))
    return _case_profile(case, [under, over])


_GENERATORS = {
    "cbr": lambda flows: ConstantBitRate(
        gbps(1.0), FixedSize(256), _ORACLE_DURATION_S, seed=3,
        flow_table=flows),
    "poisson": lambda flows: PoissonArrivals(
        gbps(1.0), FixedSize(256), _ORACLE_DURATION_S, seed=3,
        flow_table=flows),
    "profiled-spike": lambda flows: ProfiledArrivals(
        spike(gbps(1.2), gbps(2.0), start_s=0.004, duration_s=0.008),
        FixedSize(512), _ORACLE_DURATION_S, seed=3, jitter=False,
        flow_table=flows),
    "profiled-constant": lambda flows: ProfiledArrivals(
        constant(gbps(1.5)), FixedSize(512), _ORACLE_DURATION_S, seed=3,
        jitter=False, flow_table=flows),
    "profiled-overlay": lambda flows: ProfiledArrivals(
        _overlay_profile(), FixedSize(512), _ORACLE_DURATION_S, seed=3,
        jitter=False, flow_table=flows),
    "profiled-overlays": lambda flows: ProfiledArrivals(
        _overlays_profile(), FixedSize(512), _ORACLE_DURATION_S, seed=3,
        jitter=False, flow_table=flows),
}


def _stream(packets):
    return [(p.seq, p.size_bytes, p.arrival_s, p.flow_id) for p in packets]


def _spike_source(rate_bps, size, duration_s, seed, flows, overloads=(),
                  profile_horizon_s=None):
    """A jitter-free soak case spike, overload windows overlaid, that
    spans ``profile_horizon_s`` (by default the generator's horizon)."""
    case = SoakCase(seed=seed, duration_s=profile_horizon_s or duration_s,
                    packet_bytes=size, base_bps=rate_bps,
                    peak_bps=1.5 * rate_bps, faults=tuple(overloads))
    return ProfiledArrivals(_case_profile(case, list(overloads)),
                            FixedSize(size), duration_s, seed=seed,
                            jitter=False, flow_table=flows)


class TestBatchedMatchesScalarOracle:
    """Each generator's ``packets()`` against the base-class scalar loop.

    Jitter-free profiles run their own loop; CBR and Poisson run the
    base loop itself, so for them this checks determinism.
    """

    @pytest.mark.parametrize("num_flows", [None, 1, 64])
    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    def test_identical_stream(self, name, num_flows):
        def build():
            flows = (None if num_flows is None
                     else FlowTable(num_flows=num_flows, seed=9))
            return _GENERATORS[name](flows)

        scalar = _stream(TrafficGenerator.packets(build()))
        fast = _stream(build().packets())
        assert len(scalar) > 4096
        assert fast == scalar

    @settings(max_examples=100, deadline=None)
    @given(rate_bps=st.floats(min_value=1e8, max_value=1e10),
           size=st.integers(min_value=64, max_value=1500),
           gaps=st.floats(min_value=0.01, max_value=600.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           num_flows=st.integers(min_value=1, max_value=256),
           windows=st.lists(st.tuples(st.floats(0.0, 1.0),
                                      st.floats(0.01, 1.0)), max_size=2))
    @example(rate_bps=1e9, size=512, gaps=0.99, seed=1, num_flows=4,
             windows=[(0.0, 1.0)])
    def test_profiled_spike_property(self, rate_bps, size, gaps, seed,
                                     num_flows, windows):
        # ``gaps`` is the horizon in base-rate gaps: below 1 the horizon
        # is shorter than one gap.
        duration_s = gaps * bits(size) / rate_bps
        overloads = [ChaosFault(kind="overload", at_s=start * duration_s,
                                duration_s=length * duration_s,
                                magnitude=2.0 * rate_bps)
                     for start, length in windows]

        def build():
            return _spike_source(rate_bps, size, duration_s, seed,
                                 FlowTable(num_flows=num_flows, seed=seed),
                                 overloads)

        assert (_stream(build().packets())
                == _stream(TrafficGenerator.packets(build())))

    @pytest.mark.parametrize("count", [4096, 4097])
    def test_profiled_spike_exact_count(self, count):
        # The horizon is the arrival of packet ``count``, so exactly
        # ``count`` packets arrive before it.
        horizon_s = 6000 * bits(256) / gbps(1.0)
        overload = [ChaosFault(kind="overload", at_s=0.5 * horizon_s,
                               duration_s=0.1 * horizon_s,
                               magnitude=gbps(2.0))]

        def build(duration_s):
            return _spike_source(gbps(1.0), 256, duration_s, 3,
                                 FlowTable(num_flows=16, seed=3), overload,
                                 profile_horizon_s=horizon_s)

        reference = list(TrafficGenerator.packets(build(horizon_s)))
        cutoff_s = reference[count].arrival_s
        scalar = _stream(TrafficGenerator.packets(build(cutoff_s)))
        assert len(scalar) == count
        assert _stream(build(cutoff_s).packets()) == scalar


class TestCaseProfile:
    def test_windows_overlay_the_spike_half_open(self):
        # Spike [4, 12) ms at 1.8 Gbps over 1.2; windows [3, 9) ms at
        # 1.5 and [7, 15) ms at 2.4 Gbps.
        profile = _overlays_profile()
        expected = {0.0: 1.2e9, 0.003: 1.5e9, 0.004: 1.8e9, 0.007: 2.4e9,
                    0.012: 2.4e9, 0.0149: 2.4e9, 0.015: 1.2e9}
        assert {t: profile(t) for t in expected} == expected


class TestConstantBitRate:
    def test_interarrival_is_exact(self):
        gen = ConstantBitRate(gbps(1.0), FixedSize(256), duration_s=0.001)
        packets = list(gen.packets())
        gaps = {round(b.arrival_s - a.arrival_s, 12)
                for a, b in zip(packets, packets[1:])}
        assert len(gaps) == 1  # perfectly even spacing

    def test_realised_rate_matches_target(self):
        gen = ConstantBitRate(gbps(1.0), FixedSize(256), duration_s=0.002)
        packets = list(gen.packets())
        assert realised_rate_bps(packets, 0.002) == \
            pytest.approx(gbps(1.0), rel=0.01)

    def test_sequence_numbers_monotone(self):
        gen = ConstantBitRate(mbps(100), FixedSize(64), duration_s=0.001)
        seqs = [p.seq for p in gen.packets()]
        assert seqs == list(range(len(seqs)))

    def test_arrivals_within_horizon(self):
        gen = ConstantBitRate(mbps(100), FixedSize(64), duration_s=0.001)
        assert all(p.arrival_s < 0.001 for p in gen.packets())

    def test_deterministic_across_iterations(self):
        gen = ConstantBitRate(mbps(100), FixedSize(64), duration_s=0.001)
        first = [(p.seq, p.arrival_s) for p in gen.packets()]
        second = [(p.seq, p.arrival_s) for p in gen.packets()]
        assert first == second

    def test_rate_validated(self):
        with pytest.raises(ConfigurationError):
            ConstantBitRate(0.0, FixedSize(64), duration_s=0.001)

    def test_duration_validated(self):
        with pytest.raises(ConfigurationError):
            ConstantBitRate(mbps(1), FixedSize(64), duration_s=0.0)

    def test_convenience_constructor(self):
        gen = cbr_64_to_1500(gbps(1.0), 1500, duration_s=0.001)
        assert all(p.size_bytes == 1500 for p in gen.packets())


class TestPoisson:
    def test_mean_rate_approximates_target(self):
        gen = PoissonArrivals(gbps(1.0), FixedSize(256), duration_s=0.01,
                              seed=5)
        packets = list(gen.packets())
        assert realised_rate_bps(packets, 0.01) == \
            pytest.approx(gbps(1.0), rel=0.1)

    def test_interarrivals_vary(self):
        gen = PoissonArrivals(gbps(1.0), FixedSize(256), duration_s=0.001,
                              seed=5)
        packets = list(gen.packets())
        gaps = {round(b.arrival_s - a.arrival_s, 12)
                for a, b in zip(packets, packets[1:])}
        assert len(gaps) > 10

    def test_seed_reproducibility(self):
        a = [p.arrival_s for p in PoissonArrivals(
            gbps(1.0), FixedSize(256), 0.001, seed=5).packets()]
        b = [p.arrival_s for p in PoissonArrivals(
            gbps(1.0), FixedSize(256), 0.001, seed=5).packets()]
        assert a == b


class TestOnOffBursts:
    def test_mean_rate_between_low_and_high(self):
        gen = OnOffBursts(low_bps=mbps(500), high_bps=gbps(2.0),
                          size_dist=FixedSize(256), duration_s=0.05,
                          mean_dwell_s=0.005, seed=2)
        packets = list(gen.packets())
        realised = realised_rate_bps(packets, 0.05)
        assert mbps(500) * 0.5 < realised < gbps(2.0)

    def test_repeated_iteration_resets_modulation(self):
        gen = OnOffBursts(low_bps=mbps(500), high_bps=gbps(2.0),
                          size_dist=FixedSize(256), duration_s=0.01,
                          seed=2)
        first = [p.arrival_s for p in gen.packets()]
        second = [p.arrival_s for p in gen.packets()]
        assert first == second

    def test_side_by_side_iterations_are_identical(self):
        # A run draws each chain's workload lazily, so two chains fed
        # by one generator consume its iterations interleaved.
        gen = OnOffBursts(low_bps=mbps(500), high_bps=gbps(2.0),
                          size_dist=FixedSize(256), duration_s=0.05,
                          mean_dwell_s=0.005, seed=3)
        alone = [p.arrival_s for p in gen.packets()]
        pairs = list(zip(gen.packets(), gen.packets()))
        assert [a.arrival_s for a, _ in pairs] == alone
        assert [b.arrival_s for _, b in pairs] == alone

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            OnOffBursts(low_bps=gbps(2.0), high_bps=gbps(1.0),
                        size_dist=FixedSize(64), duration_s=0.01)


class TestRamp:
    def test_rate_at_endpoints(self):
        gen = RampArrivals(mbps(100), gbps(1.0), FixedSize(256),
                           duration_s=0.01)
        assert gen.rate_at(0.0) == mbps(100)
        assert gen.rate_at(0.01) == gbps(1.0)

    def test_rate_clamped_outside_horizon(self):
        gen = RampArrivals(mbps(100), gbps(1.0), FixedSize(256),
                           duration_s=0.01)
        assert gen.rate_at(-1.0) == mbps(100)
        assert gen.rate_at(99.0) == gbps(1.0)

    def test_arrivals_accelerate(self):
        gen = RampArrivals(mbps(100), gbps(1.0), FixedSize(256),
                           duration_s=0.01)
        packets = list(gen.packets())
        first_gap = packets[1].arrival_s - packets[0].arrival_s
        last_gap = packets[-1].arrival_s - packets[-2].arrival_s
        assert last_gap < first_gap

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            RampArrivals(gbps(1.0), gbps(1.0), FixedSize(64), 0.01)


class TestCountEstimate:
    def test_estimate_close_to_actual(self):
        gen = ConstantBitRate(gbps(1.0), FixedSize(256), duration_s=0.005)
        actual = len(list(gen.packets()))
        assert gen.count_estimate() == pytest.approx(actual, rel=0.02)
