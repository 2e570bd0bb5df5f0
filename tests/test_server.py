"""Server aggregate: installation, moves, demand refresh."""

import pytest

from repro.chain.nf import DeviceKind
from repro.devices.server import PAPER_TESTBED, Server, ServerProfile
from repro.errors import PlacementError
from repro.units import gbps

S = DeviceKind.SMARTNIC
C = DeviceKind.CPU


class TestProfile:
    def test_paper_testbed_matches_s3(self):
        server = PAPER_TESTBED.build()
        assert server.nic.port_rate_bps == gbps(10.0)
        assert server.nic.num_ports == 2
        assert server.cpu.num_sockets == 2
        assert server.cpu.cores_per_socket == 6
        assert server.cpu.frequency_ghz == pytest.approx(2.10)

    def test_profile_build_is_fresh_each_time(self):
        a = PAPER_TESTBED.build()
        b = PAPER_TESTBED.build()
        assert a.nic is not b.nic
        assert a.pcie is not b.pcie


class TestInstall:
    def test_install_hosts_every_nf(self, fig1_scenario):
        server = fig1_scenario.build_server()
        assert server.nic.hosts("logger")
        assert server.nic.hosts("monitor")
        assert server.nic.hosts("firewall")
        assert server.cpu.hosts("load_balancer")

    def test_placement_property_reflects_install(self, fig1_scenario):
        server = fig1_scenario.build_server()
        assert server.placement == fig1_scenario.placement

    def test_placement_before_install_raises(self):
        with pytest.raises(PlacementError):
            Server().placement

    def test_reinstall_replaces(self, fig1_scenario):
        server = fig1_scenario.build_server()
        moved = fig1_scenario.placement.moved("logger", C)
        server.install(moved)
        assert server.cpu.hosts("logger")
        assert not server.nic.hosts("logger")

    def test_clear_resets_everything(self, fig1_scenario):
        server = fig1_scenario.build_server()
        server.pcie.record_crossing(64)
        server.clear()
        assert server.nic.hosted_nfs() == []
        assert server.cpu.hosted_nfs() == []
        assert server.pcie.stats.crossings == 0
        with pytest.raises(PlacementError):
            server.placement


class TestApplyMove:
    def test_move_updates_hosting_and_placement(self, fig1_scenario):
        server = fig1_scenario.build_server()
        new_placement = server.apply_move("logger", C)
        assert server.cpu.hosts("logger")
        assert not server.nic.hosts("logger")
        assert server.placement is new_placement
        assert new_placement.device_of("logger") is C

    def test_invalid_move_rejected_and_state_unchanged(self, fig1_scenario):
        server = fig1_scenario.build_server()
        with pytest.raises(PlacementError):
            server.apply_move("load_balancer", C)  # already there
        assert server.cpu.hosts("load_balancer")


class TestRefreshDemand:
    def test_demands_match_load_model(self, fig1_scenario):
        server = fig1_scenario.build_server()
        (model,) = server.refresh_demand(gbps(1.8))
        assert server.nic.demand == pytest.approx(
            model.nic_load().utilisation)
        assert server.cpu.demand == pytest.approx(
            model.cpu_load().utilisation)

    def test_device_accessor(self, fig1_scenario):
        server = fig1_scenario.build_server()
        assert server.device(S) is server.nic
        assert server.device(C) is server.cpu
