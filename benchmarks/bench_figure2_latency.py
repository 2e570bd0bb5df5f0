"""Figure 2(a) reproduction: average service-chain latency vs packet
size (64 B ... 1500 B) for before / naive / PAM.

Headline shape: PAM tracks the before-migration latency at every packet
size and sits 15-20% below the naive migration (the paper reports an
18% average reduction).
"""

import statistics

import pytest

from conftest import campaign_workers, report
from repro.harness.scenarios import figure1
from repro.exec import make_executor, run_campaign
from repro.harness.sweep import SizeSweepCampaign, SizeSweepPoint
from repro.harness.tables import render_figure2_latency
from repro.telemetry.metrics import relative_change
from repro.traffic.packet import PAPER_SIZE_SWEEP


def test_figure2_latency_series(benchmark):
    points = []

    def run():
        points.clear()
        outcome = run_campaign(
            SizeSweepCampaign(figure1(), sizes=PAPER_SIZE_SWEEP,
                              duration_s=0.008),
            executor=make_executor(campaign_workers()))
        points.extend(SizeSweepPoint.from_record(payload)
                      for payload in outcome.payloads)
        return points

    benchmark.pedantic(run, rounds=1, iterations=1)

    gaps = [relative_change(p.mean_latency_usec("pam"),
                            p.mean_latency_usec("naive"))
            for p in points]
    mean_gap = statistics.mean(gaps)
    body = render_figure2_latency(points) + \
        f"\n\naverage PAM saving vs naive: {-mean_gap:.1%} (paper: 18%)"
    report("Figure 2(a) — service chain latency vs packet size", body)

    for point, gap in zip(points, gaps):
        # PAM below naive at every size...
        assert gap < -0.10, point.packet_size_bytes
        # ...and indistinguishable from the pre-migration chain.
        assert point.mean_latency_usec("pam") == pytest.approx(
            point.mean_latency_usec("noop"), rel=0.02)
    assert -0.22 < mean_gap < -0.14  # 18% +/- band
