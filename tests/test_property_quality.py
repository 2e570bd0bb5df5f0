"""Property tests batch 3: histograms and diagrams."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.diagram import render_placement
from repro.telemetry.histogram import LatencyHistogram

from .test_property_placement import placements


class TestHistogramProperties:
    samples = st.lists(st.floats(min_value=1e-6, max_value=0.99),
                       min_size=1, max_size=200)

    @given(samples)
    @settings(max_examples=80, deadline=None)
    def test_total_equals_bucket_sums(self, values):
        histogram = LatencyHistogram()
        histogram.extend(values)
        bucketed = sum(count for *_, count in histogram.nonzero_buckets())
        assert bucketed + histogram.underflow + histogram.overflow == \
            len(values)

    @given(samples)
    @settings(max_examples=80, deadline=None)
    def test_quantiles_monotone(self, values):
        histogram = LatencyHistogram()
        histogram.extend(values)
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)

    @given(samples)
    @settings(max_examples=80, deadline=None)
    def test_quantile_brackets_true_median_within_bucket(self, values):
        # quantile(0.5) returns the upper bound of the bucket holding
        # the ceil(n/2)-th smallest sample, so it can be at most one
        # bucket-width below that sample's value.
        histogram = LatencyHistogram(buckets_per_decade=8)
        histogram.extend(values)
        rank = math.ceil(0.5 * len(values)) - 1
        covered_sample = sorted(values)[rank]
        estimate = histogram.quantile(0.5)
        step = 10 ** (1 / 8)
        assert estimate >= covered_sample / (step * 1.001)


class TestDiagramProperties:
    @given(placements(min_len=1, max_len=6))
    @settings(max_examples=60, deadline=None)
    def test_every_nf_rendered_exactly_once(self, placement):
        text = render_placement(placement)
        for name in placement.chain.names():
            assert text.count(f"[{name}]") == 1

    @given(placements(min_len=1, max_len=6))
    @settings(max_examples=60, deadline=None)
    def test_crossing_marks_match_geometry(self, placement):
        text = render_placement(placement)
        lines = text.splitlines()
        marks = lines[1] if len(lines) == 4 else ""
        assert marks.count("X") == placement.pcie_crossings()

    @given(placements(min_len=1, max_len=6))
    @settings(max_examples=60, deadline=None)
    def test_footer_states_crossings(self, placement):
        text = render_placement(placement)
        assert f"PCIe crossings: {placement.pcie_crossings()}" in text
