"""Migration mechanism: state sizes, cost timeline, live executor."""

import pytest

from repro.chain import catalog
from repro.core.pam import select as pam_select
from repro.devices.pcie import PCIeLink
from repro.errors import ConfigurationError, MigrationError
from repro.migration.cost import MigrationCost, MigrationCostModel
from repro.migration.executor import MigrationExecutor
from repro.migration.state import (STATELESS_BLOB_BYTES, StateModel)
from repro.sim.engine import Engine
from repro.sim.network import ChainNetwork
from repro.traffic.packet import Packet
from repro.units import gbps, usec


class TestStateModel:
    def test_stateless_nf_moves_config_blob_only(self):
        model = StateModel()
        logger = catalog.FIGURE1_SCENARIO["logger"]  # stateless
        assert model.transfer_bytes(logger, active_flows=10_000) == \
            STATELESS_BLOB_BYTES

    def test_stateful_nf_scales_with_flows(self):
        model = StateModel()
        firewall = catalog.get("firewall")
        no_flows = model.transfer_bytes(firewall, 0)
        many = model.transfer_bytes(firewall, 1000)
        assert many == no_flows + 1000 * model.flow_entry_bytes

    def test_negative_flows_rejected(self):
        with pytest.raises(ConfigurationError):
            StateModel().transfer_bytes(catalog.get("firewall"), -1)

    def test_entry_size_validated(self):
        with pytest.raises(ConfigurationError):
            StateModel(flow_entry_bytes=0)


class TestCostModel:
    def test_total_is_sum_of_phases(self):
        cost = MigrationCost(pause_s=1e-5, transfer_s=2e-5, resume_s=3e-5)
        assert cost.total_s == pytest.approx(6e-5)

    def test_estimate_decomposition(self):
        model = MigrationCostModel()
        link = PCIeLink()
        firewall = catalog.get("firewall")
        cost = model.estimate(firewall, link, active_flows=100,
                              buffered_packets=10)
        assert cost.pause_s == model.pause_overhead_s
        expected_bytes = model.state_model.transfer_bytes(firewall, 100)
        assert cost.transfer_s == pytest.approx(
            link.bulk_transfer_time(expected_bytes))
        assert cost.resume_s == pytest.approx(
            model.resume_overhead_s + 10 * model.per_buffered_packet_s)

    def test_more_state_costs_more(self):
        model = MigrationCostModel()
        link = PCIeLink()
        small = model.estimate(catalog.get("firewall"), link, 10)
        large = model.estimate(catalog.get("firewall"), link, 100_000)
        assert large.total_s > small.total_s

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MigrationCostModel(pause_overhead_s=-1.0)
        with pytest.raises(ConfigurationError):
            MigrationCostModel(per_buffered_packet_s=-1.0)


class LiveHarness:
    """A live figure-1 simulation ready to migrate mid-run."""

    def __init__(self, fig1_scenario):
        self.server = fig1_scenario.build_server()
        self.server.refresh_demand(gbps(1.8))
        self.engine = Engine()
        self.network = ChainNetwork(self.server, self.engine)
        self.executor = MigrationExecutor(self.server, self.network,
                                          self.engine)

    def inject_cbr(self, count, gap_s=2e-6, size=256):
        for i in range(count):
            self.network.inject(Packet(seq=i, size_bytes=size,
                                       arrival_s=i * gap_s))


class TestExecutor:
    def test_applies_pam_plan_live(self, fig1_scenario):
        h = LiveHarness(fig1_scenario)
        plan = pam_select(fig1_scenario.placement, gbps(1.8))
        h.inject_cbr(500)
        done = []
        h.engine.at(1e-4, lambda: h.executor.apply(
            plan, gbps(1.8),
            on_outcome=lambda outcome: done.append(outcome.succeeded)),
                    control=True)
        h.engine.run()
        assert done == [True]
        assert h.server.placement.device_of("logger").value == "cpu"
        assert len(h.executor.records) == 1

    def test_no_packet_loss_during_migration(self, fig1_scenario):
        h = LiveHarness(fig1_scenario)
        plan = pam_select(fig1_scenario.placement, gbps(1.8))
        h.inject_cbr(500)
        h.engine.at(1e-4, lambda: h.executor.apply(plan, gbps(1.8)),
                    control=True)
        h.engine.run()
        assert len(h.network.delivered) == 500
        assert len(h.network.dropped) == 0

    def test_migration_record_fields(self, fig1_scenario):
        h = LiveHarness(fig1_scenario)
        plan = pam_select(fig1_scenario.placement, gbps(1.8))
        h.inject_cbr(200)
        h.engine.at(1e-4, lambda: h.executor.apply(plan, gbps(1.8)),
                    control=True)
        h.engine.run()
        record = h.executor.records[0]
        assert record.nf_name == "logger"
        assert record.completed_s >= record.started_s + record.cost.total_s

    def test_packets_buffered_during_migration_are_delayed(self,
                                                           fig1_scenario):
        h = LiveHarness(fig1_scenario)
        plan = pam_select(fig1_scenario.placement, gbps(1.8))
        h.inject_cbr(500)
        h.engine.at(1e-4, lambda: h.executor.apply(plan, gbps(1.8)),
                    control=True)
        h.engine.run()
        latencies = [p.latency_s for p in h.network.delivered]
        # The transient spike from buffering must be visible: the worst
        # packet waited at least the state-transfer time longer than the
        # best one.
        assert max(latencies) > min(latencies) + \
            h.executor.records[0].cost.transfer_s * 0.5

    def test_noop_plan_completes_immediately(self, fig1_scenario):
        from repro.core.plan import MigrationPlan
        h = LiveHarness(fig1_scenario)
        done = []
        plan = MigrationPlan.empty(fig1_scenario.placement, "noop")
        h.executor.apply(plan, gbps(1.0), on_outcome=lambda outcome:
                         done.append(outcome.succeeded))
        assert done == [True]
        assert not h.executor.busy

    def test_concurrent_apply_rejected(self, fig1_scenario):
        h = LiveHarness(fig1_scenario)
        plan = pam_select(fig1_scenario.placement, gbps(1.8))
        h.inject_cbr(100)
        h.engine.at(1e-4, lambda: h.executor.apply(plan, gbps(1.8)),
                    control=True)

        failures = []

        def second_apply():
            try:
                h.executor.apply(plan, gbps(1.8))
            except MigrationError:
                failures.append(True)

        h.engine.at(1e-4 + 1e-6, second_apply, control=True)
        h.engine.run()
        assert failures == [True]

    def test_demand_refreshed_after_migration(self, fig1_scenario):
        h = LiveHarness(fig1_scenario)
        plan = pam_select(fig1_scenario.placement, gbps(1.8))
        h.inject_cbr(300)
        h.engine.at(1e-4, lambda: h.executor.apply(plan, gbps(1.8)),
                    control=True)
        h.engine.run()
        # Post-migration the NIC hosts monitor+firewall only:
        # 1.8 * (1/3.2 + 1/10) = 0.7425.
        assert h.server.nic.demand == pytest.approx(0.7425)
        assert h.server.cpu.demand == pytest.approx(0.9)
