"""Incremental (per-flow-batch) migration."""

import pytest

from dataclasses import replace

from repro.chain.nf import DeviceKind
from repro.errors import ConfigurationError, MigrationError
from repro.harness.scenarios import figure1
from repro.migration.cost import MigrationCostModel
from repro.migration.executor import MigrationExecutor
from repro.migration.incremental import IncrementalMigrator
from repro.sim.engine import Engine
from repro.sim.network import ChainNetwork
from repro.traffic.packet import Packet
from repro.units import gbps

C = DeviceKind.CPU


def live(offered=gbps(1.8)):
    server = figure1().build_server()
    server.refresh_demand(offered)
    engine = Engine()
    network = ChainNetwork(server, engine)
    return server, engine, network


def inject(network, count=3000, gap=1.1e-6):
    for i in range(count):
        network.inject(Packet(seq=i, size_bytes=256, arrival_s=i * gap))


class TestMechanics:
    def test_completes_and_moves_the_nf(self):
        server, engine, network = live()
        migrator = IncrementalMigrator(server, network, engine,
                                       batches=4, active_flows=1000)
        inject(network)
        done = []
        engine.at(5e-4, lambda: migrator.migrate(
            "monitor", C, gbps(1.8), on_done=lambda: done.append(1)),
            control=True)
        engine.run()
        assert done == [1]
        assert server.placement.device_of("monitor") is C
        record = migrator.records[0]
        assert record.batches == 4
        assert record.completed_s > record.started_s

    def test_loss_free(self):
        server, engine, network = live()
        migrator = IncrementalMigrator(server, network, engine,
                                       batches=4, active_flows=1000)
        inject(network)
        engine.at(5e-4, lambda: migrator.migrate("monitor", C, gbps(1.8)),
                  control=True)
        engine.run()
        network.check_conservation()
        assert network.dropped == 0
        assert len(network.delivered) == 3000

    def test_validation(self):
        server, engine, network = live()
        with pytest.raises(ConfigurationError):
            IncrementalMigrator(server, network, engine, batches=0)
        migrator = IncrementalMigrator(server, network, engine)
        with pytest.raises(MigrationError):
            migrator.migrate("ghost", C, gbps(1.0))
        with pytest.raises(MigrationError):
            migrator.migrate("load_balancer", C, gbps(1.0))  # already there

    def test_concurrent_migrations_rejected(self):
        server, engine, network = live()
        migrator = IncrementalMigrator(server, network, engine,
                                       active_flows=100_000)
        inject(network, count=500)
        failures = []

        def second():
            try:
                migrator.migrate("logger", C, gbps(1.8))
            except MigrationError:
                failures.append(True)

        engine.at(1e-4, lambda: migrator.migrate("monitor", C, gbps(1.8)),
                  control=True)
        engine.at(1.5e-4, second, control=True)
        engine.run()
        assert failures == [True]


class TestTransientVsFullPause:
    def worst_latency(self, incremental: bool, active_flows=50_000):
        """Worst packet latency migrating monitor with much state.

        Measured at a *healthy* 1.2 Gbps so the transient is purely the
        migration's own buffering, not overload backlog.
        """
        server, engine, network = live(offered=gbps(1.2))
        inject(network, count=4000, gap=1.7e-6)
        if incremental:
            migrator = IncrementalMigrator(server, network, engine,
                                           batches=16,
                                           active_flows=active_flows)
            engine.at(5e-4, lambda: migrator.migrate(
                "monitor", C, gbps(1.2)), control=True)
        else:
            from repro.baselines.naive import select as naive_select
            executor = MigrationExecutor(server, network, engine,
                                         active_flows=active_flows)
            plan = naive_select(figure1().placement, gbps(1.8))
            engine.at(5e-4, lambda: executor.apply(plan, gbps(1.2)),
                      control=True)
        engine.run()
        return max(p.latency_s for p in network.delivered)

    def test_incremental_transient_much_smaller(self):
        full = self.worst_latency(incremental=False)
        incremental = self.worst_latency(incremental=True)
        # 50k flows = 6.4 MB of state: the full pause buffers ~1 ms of
        # traffic; 16 batches cut the worst-case buffering by >3x.
        assert incremental < full / 3

    def test_incremental_total_duration_not_shorter(self):
        # The state still has to cross the link, plus per-batch control
        # overhead: total duration is at least the full-pause transfer.
        server, engine, network = live()
        migrator = IncrementalMigrator(server, network, engine,
                                       batches=16, active_flows=50_000)
        inject(network, count=4000)
        engine.at(5e-4, lambda: migrator.migrate("monitor", C, gbps(1.8)),
                  control=True)
        engine.run()
        record = migrator.records[0]
        state_bytes = migrator.cost_model.state_model.transfer_bytes(
            figure1().chain.get("monitor"), 50_000)
        assert record.completed_s - record.started_s >= \
            state_bytes * 8.0 / server.pcie.bandwidth_bps
