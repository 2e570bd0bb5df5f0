"""Latency/throughput aggregation."""

import statistics

import pytest

from repro.errors import SimulationError
from repro.telemetry.metrics import (LatencySummary, ThroughputSummary,
                                     percentile, relative_change)


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        values = [1.0, 5.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    def test_singleton(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            percentile([], 0.5)

    def test_fraction_bounds(self):
        with pytest.raises(SimulationError):
            percentile([1.0], 1.5)

    def test_matches_statistics_inclusive(self):
        # The "inclusive" method is the same linear estimator (type 7).
        values = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3])
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for q in (0.1, 0.25, 0.5, 0.9, 0.99):
            assert percentile(values, q) == \
                pytest.approx(cuts[round(q * 100) - 1])

    def test_matches_numpy_linear(self):
        numpy = pytest.importorskip("numpy")
        values = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3])
        for q in (0.1, 0.25, 0.5, 0.9, 0.99):
            assert percentile(values, q) == \
                pytest.approx(float(numpy.percentile(values, q * 100)))


class TestLatencySummary:
    def test_from_samples(self):
        summary = LatencySummary.from_samples([1e-5, 2e-5, 3e-5])
        assert summary.count == 3
        assert summary.mean_s == pytest.approx(2e-5)
        assert summary.min_s == 1e-5
        assert summary.max_s == 3e-5

    def test_mean_sums_left_to_right(self):
        # Uncompensated, on every interpreter: builtin sum() gives 0.1
        # here on Python 3.12+, which would move pinned run digests.
        assert LatencySummary.from_samples([0.1] * 10).mean_s == \
            0.09999999999999999

    def test_percentile_ordering(self):
        summary = LatencySummary.from_samples(
            [i * 1e-6 for i in range(1, 101)])
        assert summary.p50_s <= summary.p90_s <= summary.p99_s <= \
            summary.max_s

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            LatencySummary.from_samples([])

    def test_mean_usec(self):
        summary = LatencySummary.from_samples([2e-5])
        assert summary.mean_usec == pytest.approx(20.0)

    def test_describe_mentions_units(self):
        text = LatencySummary.from_samples([1e-5]).describe()
        assert "us" in text and "n=1" in text


class TestThroughputSummary:
    def test_goodput(self):
        summary = ThroughputSummary(delivered_packets=100,
                                    delivered_bytes=100 * 125,
                                    window_s=1e-3)
        assert summary.goodput_bps == pytest.approx(1e8)

    def test_packet_rate(self):
        summary = ThroughputSummary(10, 640, window_s=1e-3)
        assert summary.packet_rate_pps == pytest.approx(1e4)

    def test_zero_window_rejected(self):
        with pytest.raises(SimulationError):
            ThroughputSummary(1, 64, window_s=0.0).goodput_bps


class TestRelativeChange:
    def test_reduction(self):
        assert relative_change(82.0, 100.0) == pytest.approx(-0.18)

    def test_zero_baseline_rejected(self):
        with pytest.raises(SimulationError):
            relative_change(1.0, 0.0)
