"""Latency histograms."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.experiment import ExperimentConfig
from repro.harness.scenarios import figure1
from repro.telemetry.histogram import LatencyHistogram
from repro.units import gbps, usec


class TestHistogram:
    def test_counts_and_total(self):
        histogram = LatencyHistogram()
        histogram.extend([usec(10), usec(12), usec(100)])
        assert histogram.total == 3
        assert sum(count for *_, count in histogram.nonzero_buckets()) == 3

    def test_under_and_overflow(self):
        histogram = LatencyHistogram(lo_s=usec(10), hi_s=usec(100))
        histogram.extend([usec(1), usec(50), usec(500)])
        assert histogram.underflow == 1
        assert histogram.overflow == 1

    def test_bucket_bounds_are_contiguous(self):
        histogram = LatencyHistogram(buckets_per_decade=4)
        __, upper1 = histogram.bucket_bounds(1)
        lower2, __ = histogram.bucket_bounds(2)
        assert upper1 == pytest.approx(lower2)

    def test_quantile_monotone(self):
        histogram = LatencyHistogram()
        histogram.extend([usec(v) for v in (10, 10, 10, 50, 200, 200)])
        values = [histogram.quantile(q / 10) for q in range(1, 11)]
        assert values == sorted(values)

    def test_quantile_brackets_true_value(self):
        histogram = LatencyHistogram(buckets_per_decade=10)
        histogram.extend([usec(100)] * 100)
        q50 = histogram.quantile(0.5)
        assert usec(80) < q50 < usec(130)

    def test_multimodal_detection(self):
        histogram = LatencyHistogram()
        histogram.extend([usec(10)] * 50 + [usec(5000)] * 5)
        assert histogram.is_multimodal()
        unimodal = LatencyHistogram()
        unimodal.extend([usec(10 + i) for i in range(50)])
        assert not unimodal.is_multimodal()

    def test_render(self):
        histogram = LatencyHistogram()
        histogram.extend([usec(10)] * 5)
        assert "us" in histogram.render()
        assert LatencyHistogram().render() == "(empty histogram)"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram(lo_s=1.0, hi_s=0.5)
        with pytest.raises(ConfigurationError):
            LatencyHistogram().add(-1.0)
        with pytest.raises(ConfigurationError):
            LatencyHistogram().quantile(0.5)  # empty

    def test_migration_transient_is_bimodal(self):
        """The histogram separates the steady state from the transient."""
        from repro.core.planner import MigrationController, PAMPolicy
        from repro.harness.experiment import run_experiment
        config = ExperimentConfig(
            scenario=figure1(), offered_bps=gbps(1.8),
            packet_size_bytes=256, duration_s=0.02,
            controller=MigrationController(PAMPolicy()))
        result = run_experiment(config)
        # Rebuild the histogram from the delivered packets' latencies
        # via the summary quantiles is lossy; instead drive it with the
        # component data we have: use p50 vs max spread as a proxy and
        # verify the histogram flags the separation.
        histogram = LatencyHistogram(buckets_per_decade=8)
        histogram.extend([result.latency.p50_s] * 95
                         + [result.latency.max_s] * 5)
        assert histogram.is_multimodal()
