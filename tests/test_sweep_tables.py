"""Sweeps and table rendering."""

import pytest

from repro.chain.nf import DeviceKind
from repro.errors import ConfigurationError
from repro.harness.scenarios import (FIGURE1_BASE_LOAD_BPS,
                                     FIGURE1_SATURATION_BPS, figure1)
from repro.harness.sweep import (SizeSweepCampaign, measure_capacity,
                                 packet_size_sweep, pcie_latency_sweep,
                                 single_nf_scenario)
from repro.harness.tables import (render_capacity_table, render_figure1,
                                  render_figure2_latency,
                                  render_figure2_throughput,
                                  render_pcie_sweep, render_table)
from repro.chain import catalog
from repro.traffic.packet import PAPER_SIZE_SWEEP
from repro.units import gbps, usec

S = DeviceKind.SMARTNIC
C = DeviceKind.CPU


class TestSizeSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return packet_size_sweep(figure1(), sizes=(64, 512),
                                 duration_s=0.006)

    def test_one_point_per_size(self, points):
        assert [p.packet_size_bytes for p in points] == [64, 512]

    def test_accessors(self, points):
        point = points[0]
        assert point.mean_latency_usec("pam") > 0
        assert point.goodput_gbps("pam") > 0

    def test_pam_wins_at_every_size(self, points):
        for point in points:
            assert point.mean_latency_usec("pam") < \
                point.mean_latency_usec("naive")

    def test_campaign_defaults_are_the_paper_sweep(self):
        campaign = SizeSweepCampaign(figure1())
        assert campaign.fingerprint() == {
            "sizes": list(PAPER_SIZE_SWEEP), "duration_s": 0.02,
            "latency_load_bps": FIGURE1_BASE_LOAD_BPS,
            "throughput_load_bps": FIGURE1_SATURATION_BPS}


class TestMeasureCapacity:
    def test_finds_knee_of_single_nf(self):
        # Monitor on the NIC: configured theta^S = 3.2 Gbps.
        scenario = single_nf_scenario(catalog.get("monitor"), S)
        loads = [gbps(v) for v in (2.0, 2.8, 3.0, 3.2, 3.4, 3.8)]
        knee = measure_capacity(scenario, loads, duration_s=0.005)
        assert knee == pytest.approx(gbps(3.2), rel=0.08)

    def test_cpu_capacity_differs_from_nic(self):
        monitor = catalog.get("monitor")
        nic_knee = measure_capacity(
            single_nf_scenario(monitor, S),
            [gbps(v) for v in (2.0, 3.0, 3.2, 3.5)], duration_s=0.004)
        cpu_knee = measure_capacity(
            single_nf_scenario(monitor, C),
            [gbps(v) for v in (2.0, 3.5, 6.0, 9.0, 10.0, 11.0)],
            duration_s=0.004)
        assert cpu_knee > nic_knee  # Table 1: 10 vs 3.2

    def test_requires_loads(self):
        scenario = single_nf_scenario(catalog.get("monitor"), S)
        with pytest.raises(ConfigurationError):
            measure_capacity(scenario, [])


class TestPcieSweep:
    def test_gap_grows_with_crossing_cost(self):
        points = pcie_latency_sweep(
            lambda profile: figure1(server_profile=profile),
            crossing_latencies_s=[usec(2), usec(30)],
            duration_s=0.005)
        assert points[1].gap > points[0].gap

    def test_point_fields(self):
        points = pcie_latency_sweep(
            lambda profile: figure1(server_profile=profile),
            crossing_latencies_s=[usec(10)], duration_s=0.004)
        point = points[0]
        assert point.naive_latency_s > point.pam_latency_s


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_figure1(self):
        from repro.harness.compare import compare_policies
        outcomes = compare_policies(figure1(), duration_s=0.004)
        text = render_figure1(outcomes)
        assert "(b) naive migration" in text
        assert "monitor" in text

    def test_render_figure2_tables(self):
        points = packet_size_sweep(figure1(), sizes=(64,),
                                   duration_s=0.004)
        latency_text = render_figure2_latency(points)
        throughput_text = render_figure2_throughput(points)
        assert "64" in latency_text and "pam" in latency_text
        assert "Gbps" in throughput_text

    def test_render_capacity_table(self):
        text = render_capacity_table(
            [("monitor", "smartnic", gbps(3.2), gbps(3.15))])
        assert "monitor" in text
        assert "1.6%" in text

    def test_render_pcie_sweep(self):
        points = pcie_latency_sweep(
            lambda profile: figure1(server_profile=profile),
            crossing_latencies_s=[usec(10)], duration_s=0.004)
        assert "pam saves" in render_pcie_sweep(points)
