"""MigrationController: the closed detect->plan->execute loop."""

import pytest

from repro.baselines.naive import NaivePolicy
from repro.core.planner import MigrationController, PAMPolicy
from repro.harness.scenarios import figure1
from repro.sim.runner import SimulationRunner
from repro.telemetry.monitor import SERIES_NIC, LoadMonitor
from repro.traffic.generators import ConstantBitRate
from repro.traffic.packet import FixedSize
from repro.units import gbps


def closed_loop(policy, offered=gbps(1.8), duration=0.02):
    server = figure1().build_server()
    generator = ConstantBitRate(offered, FixedSize(256), duration)
    controller = MigrationController(policy)
    runner = SimulationRunner(server, generator, controller,
                              monitor_period_s=0.002)
    return runner.run(), controller


class TestClosedLoopPAM:
    def test_overload_triggers_logger_migration(self):
        result, controller = closed_loop(PAMPolicy())
        assert result.migrated_nfs == ["logger"]
        assert result.final_placement.device_of("logger").value == "cpu"

    def test_no_migration_under_light_load(self):
        result, _ = closed_loop(PAMPolicy(), offered=gbps(1.0))
        assert result.migrated_nfs == []

    def test_no_packet_loss_through_the_episode(self):
        result, _ = closed_loop(PAMPolicy())
        assert result.dropped == 0

    def test_migration_time_recorded_within_run(self):
        result, _ = closed_loop(PAMPolicy())
        assert len(result.migration_times_s) == 1
        assert 0.0 < result.migration_times_s[0] < result.duration_s

    def test_pcie_crossings_unchanged_after_pam(self):
        result, _ = closed_loop(PAMPolicy())
        assert result.final_placement.pcie_crossings() == \
            figure1().placement.pcie_crossings()


class TestClosedLoopNaive:
    def test_naive_migrates_monitor_and_adds_crossings(self):
        result, _ = closed_loop(NaivePolicy())
        assert result.migrated_nfs == ["monitor"]
        assert result.final_placement.pcie_crossings() == \
            figure1().placement.pcie_crossings() + 2


class TestControllerBehaviour:
    def test_scaleout_escalation_is_recorded(self):
        result, controller = closed_loop(PAMPolicy(), offered=gbps(2.2))
        assert result.migrated_nfs == []
        assert len(controller.scaleout_events) >= 1


class TestLoadMonitorWrapper:
    def test_records_series_and_delegates(self):
        server = figure1().build_server()
        generator = ConstantBitRate(gbps(1.8), FixedSize(256), 0.02)
        inner = MigrationController(PAMPolicy())
        monitor = LoadMonitor(inner=inner)
        result = SimulationRunner(server, generator, monitor,
                                  monitor_period_s=0.002).run()
        nic_series = monitor.recorder.values(SERIES_NIC)
        assert len(nic_series) >= 5
        assert max(nic_series) > 1.0        # overload observed
        assert nic_series[-1] < 1.0         # alleviated by the migration
        assert result.migrated_nfs == ["logger"]

    def test_monitor_without_inner_is_pure_observer(self):
        server = figure1().build_server()
        generator = ConstantBitRate(gbps(1.8), FixedSize(256), 0.01)
        monitor = LoadMonitor()
        result = SimulationRunner(server, generator, monitor,
                                  monitor_period_s=0.002).run()
        assert result.migrated_nfs == []
        assert monitor.migrations == []
