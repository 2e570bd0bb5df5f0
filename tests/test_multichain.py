"""Multi-chain consolidation: summed model, selection across chains, sim."""

import pytest

from repro.baselines.naive import NaivePolicy
from repro.chain import catalog
from repro.chain.builder import ChainBuilder
from repro.chain.chain import ServiceChain
from repro.chain.nf import DeviceKind, NFProfile
from repro.chain.placement import Placement
from repro.core.operator import HardenedController, HardeningConfig
from repro.core.planner import PAMPolicy
from repro.core.reverse import PullbackConfig, select_pullback
from repro.devices.server import ServerProfile
from repro.errors import ConfigurationError, PlacementError, ScaleOutRequired
from repro.migration.executor import ScheduledFailure
from repro.resources.model import (LoadModel, shared_capacity,
                                   shared_utilisation)
from repro.sim.runner import SimulationRunner
from repro.traffic.generators import ConstantBitRate
from repro.traffic.packet import FixedSize
from repro.traffic.patterns import ProfiledArrivals, spike
from repro.units import gbps

from .test_property_multichain import after_loads
from .test_property_pam import EQ2_TIE

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC


def chain_a():
    """LB on CPU, logger+monitor on NIC (prefix 'a/')."""
    _, placement = (ChainBuilder("a", profiles=catalog.FIGURE1_SCENARIO)
                    .cpu("load_balancer", rename="a/lb")
                    .nic("logger", rename="a/logger")
                    .nic("monitor", rename="a/monitor")
                    .build(egress=C))
    return placement


def chain_b():
    """firewall+monitor on NIC, bump-in-the-wire (prefix 'b/')."""
    _, placement = (ChainBuilder("b", profiles=catalog.FIGURE1_SCENARIO)
                    .nic("firewall", rename="b/firewall")
                    .nic("monitor", rename="b/monitor")
                    .cpu("load_balancer", rename="b/lb")
                    .build())
    return placement


def two_chain_runner(rate_a, rate_b, duration, controller=None,
                     placements=None):
    """Chains a and b co-located on one server, one CBR workload each."""
    server = ServerProfile().build()
    server.install(*(placements or (chain_a(), chain_b())))
    return SimulationRunner(server, [
        ConstantBitRate(rate_a, FixedSize(256), duration),
        ConstantBitRate(rate_b, FixedSize(256), duration, seed=2),
    ], controller)


def by_chain(results):
    """Per-chain results keyed by chain name."""
    return {r.final_placement.chain.name: r for r in results}


def pam(strict=True):
    """The PAM policy, raising or returning a partial plan."""
    return PAMPolicy(strict=strict)


@pytest.fixture
def chains():
    return (LoadModel(chain_a(), gbps(1.0)), LoadModel(chain_b(), gbps(1.0)))


class TestAggregateModel:
    def test_utilisation_sums_across_chains(self, chains):
        assert shared_utilisation(chains, S) == pytest.approx(
            sum(m.nic_load().utilisation for m in chains))

    def test_duplicate_nf_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            pam().select((LoadModel(chain_a(), gbps(1.0)),
                          LoadModel(chain_a(), gbps(1.0))))

    def test_needs_a_chain(self):
        with pytest.raises(ConfigurationError):
            pam().select(())

    def test_shared_capacity_headroom(self, chains):
        # Both chains run at 1 Gbps, so the largest uniform rate the
        # NIC sustains is 1 Gbps over its summed utilisation.
        capacity = shared_capacity([c.placement for c in chains], S)
        assert capacity / gbps(1.0) == pytest.approx(
            1.0 / shared_utilisation(chains, S))


class TestMultiChainPAM:
    def test_no_overload_is_noop(self, chains):
        plan = pam().select(chains)
        # combined NIC at 1 Gbps each:
        # a: 1*(1/4+1/3.2)=0.5625 ; b: 1*(1/10+1/3.2)=0.4125 -> 0.975.
        assert plan.is_noop

    def test_overload_picks_global_min_theta_border(self):
        chains = (LoadModel(chain_a(), gbps(1.1)),
                  LoadModel(chain_b(), gbps(1.0)))
        # Aggregate NIC: 0.61875 + 0.4125 = 1.031 > 1.
        plan = pam().select(chains)
        assert not plan.is_noop
        # Candidate borders: a/logger (4.0), a/monitor (3.2, right
        # border of chain a), b/firewall (10, left border), b/monitor
        # (3.2, right border of b).  Min theta^S = 3.2, tie between
        # the monitors; chain order breaks the tie -> a/monitor.
        first = plan.actions[0]
        assert first.nf_name == "a/monitor"
        assert first.crossing_delta <= 0
        assert plan.alleviates

    def test_crossing_safety_across_chains(self):
        chains = (LoadModel(chain_a(), gbps(1.3)),
                  LoadModel(chain_b(), gbps(1.1)))
        plan = pam(strict=False).select(chains)
        assert all(a.crossing_delta <= 0 for a in plan.actions)

    def test_raises_when_cpu_exhausted(self):
        chains = (LoadModel(chain_a(), gbps(3.5)),
                  LoadModel(chain_b(), gbps(3.5)))
        with pytest.raises(ScaleOutRequired):
            pam().select(chains)

    def test_alleviation_judged_on_the_moved_model(self):
        # Eq. 3: moving c0/nf0 then c0/nf2 leaves the NIC at exactly
        # 1.0, yet subtracting c0/nf2's share from the sum rounds just
        # below it.
        def load(index, nic_gbps, devices, rate_gbps):
            nfs = [NFProfile(name=f"c{index}/nf{i}",
                             nic_capacity_bps=gbps(capacity),
                             cpu_capacity_bps=gbps(1.0))
                   for i, capacity in enumerate(nic_gbps)]
            placement = Placement(
                ServiceChain(nfs, name=f"c{index}"),
                {nf.name: device for nf, device in zip(nfs, devices)})
            return LoadModel(placement, gbps(rate_gbps))

        loads = (load(0, [1.0, 1.0, 1.5], [S, C, S], 0.125),
                 load(1, [1.0], [C], 0.5), load(2, [1.0], [S], 1.0))
        plan = pam(strict=False).select(loads)
        assert shared_utilisation(after_loads(plan, loads), S) == 1.0
        assert not plan.alleviates

        # Eq. 2: moving nf1 would leave the CPU at exactly 1.0, yet
        # adding nf1's share to the sum rounds just below it.
        placement, rate = EQ2_TIE
        moved = LoadModel(placement.moved("nf1", C), rate)
        assert shared_utilisation((moved,), C) == 1.0
        plan = pam(strict=False).select((LoadModel(placement, rate),))
        assert plan.is_noop
        assert not plan.alleviates

    def test_actions_for_chain_filter(self):
        chains = (LoadModel(chain_a(), gbps(1.1)),
                  LoadModel(chain_b(), gbps(1.0)))
        plan = pam().select(chains)
        assert plan.actions_for_chain(0) == list(plan.actions)
        for action in plan.actions_for_chain(0):
            assert action.nf_name in plan.befores[0].chain
        assert plan.actions_for_chain(1) == []
        assert plan.afters[1] == plan.befores[1]

    def test_single_chain_plan_views_refuse_colocated_chains(self, chains):
        plan = pam().select(chains)
        for view in (lambda: plan.before, lambda: plan.after):
            with pytest.raises(PlacementError, match="2 chains"):
                view()


class TestMultiChainSim:
    def make_runner(self, rate_a=gbps(0.8), rate_b=gbps(0.8),
                    duration=0.004):
        return two_chain_runner(rate_a, rate_b, duration)

    def test_both_chains_deliver(self):
        results = self.make_runner().run_chains()
        assert len(results) == 2
        for result in results:
            assert result.delivered == result.injected
            assert result.dropped == 0

    def test_per_chain_latency_reflects_geometry(self):
        by_name = by_chain(self.make_runner().run_chains())
        # Chain a crosses PCIe twice (C ingress-adjacent + host egress),
        # chain b also twice, but chain a has the slower logger; just
        # check both yield sane, distinct latency profiles.
        assert by_name["a"].latency is not None
        assert by_name["b"].latency is not None

    def test_interference_through_shared_device(self):
        # Chain b's latency must rise when chain a overloads the NIC,
        # even though chain b's own load is unchanged.
        light = by_chain(self.make_runner(rate_a=gbps(0.3)).run_chains())
        heavy = by_chain(self.make_runner(rate_a=gbps(1.8)).run_chains())
        b_light = light["b"]
        b_heavy = heavy["b"]
        assert b_heavy.latency.mean_s > b_light.latency.mean_s

    def test_single_chain_views_refuse_colocated_chains(self):
        runner = self.make_runner()
        for view in (runner.run, lambda: runner.network,
                     lambda: runner.server.placement):
            with pytest.raises(PlacementError):
                view()
        with pytest.raises(ConfigurationError, match="one generator each"):
            SimulationRunner(runner.server, runner.generators[0])

    def test_pam_plan_restores_multichain_health(self):
        chains = (LoadModel(chain_a(), gbps(1.1)),
                  LoadModel(chain_b(), gbps(1.0)))
        plan = pam().select(chains)
        after = after_loads(plan, chains)
        assert shared_utilisation(after, S) < 1.0
        assert shared_utilisation(after, C) < 1.0

    def test_duplicate_names_rejected_at_hosting(self):
        server = ServerProfile().build()
        with pytest.raises(PlacementError, match="unique"):
            server.install(chain_a(), chain_a())
        # The same name on different devices clashes too, although
        # neither device hosts it twice.
        x = NFProfile(name="x", nic_capacity_bps=gbps(1.0),
                      cpu_capacity_bps=gbps(1.0))
        on_nic = Placement(ServiceChain([x], name="p"), {"x": S})
        on_cpu = Placement(ServiceChain([x], name="q"), {"x": C})
        with pytest.raises(PlacementError, match="unique"):
            server.install(on_nic, on_cpu)


class TestLiveMultiChainControl:
    """Closed-loop cross-chain migration on the shared server."""

    def run_closed_loop(self, rate_a, rate_b, duration=0.03,
                        config=HardeningConfig(enable_pullback=False),
                        failure_hook=None, policy=None, placements=None):
        controller = HardenedController(policy, config=config,
                                        failure_hook=failure_hook)
        runner = two_chain_runner(rate_a, rate_b, duration, controller,
                                  placements)
        return runner, by_chain(runner.run_chains())

    def test_overload_triggers_cross_chain_migration(self):
        runner, results = self.run_closed_loop(gbps(1.1), gbps(1.0))
        records = runner.controller.migrations
        assert len(records) >= 1
        assert records[0].nf_name == "a/monitor"

    def test_no_migration_under_light_load(self):
        runner, __ = self.run_closed_loop(gbps(0.6), gbps(0.6))
        assert runner.controller.migrations == []

    def test_no_loss_through_live_migration(self):
        __, results = self.run_closed_loop(gbps(1.1), gbps(1.0))
        for result in results.values():
            assert result.dropped == 0

    def test_final_placements_reflect_moves(self):
        runner, __ = self.run_closed_loop(gbps(1.1), gbps(1.0))
        moved = runner.controller.migrations[0]
        final = next(placement for placement in runner.server.placements
                     if moved.nf_name in placement.chain)
        assert final.device_of(moved.nf_name) is C

    def test_aggregate_demand_relaxed_after_migration(self):
        runner, __ = self.run_closed_loop(gbps(1.1), gbps(1.0))
        assert runner.server.nic.demand < 1.0

    def test_failed_move_rolls_back_and_retries(self):
        hook = ScheduledFailure({("a/monitor", 1): 0.5})
        runner, results = self.run_closed_loop(gbps(1.1), gbps(1.0),
                                               failure_hook=hook)
        assert hook.triggered == [("a/monitor", 1)]
        assert [(r.nf_name, r.outcome) for r in runner.controller.attempts] \
            == [("a/monitor", "rolled_back"), ("a/monitor", "succeeded")]
        assert runner.server.placements[0].device_of("a/monitor") is C
        for result in results.values():
            assert result.dropped == 0

    def test_budget_caps_cross_chain_migrations(self):
        # Chain p's load needs both of its NFs pushed aside at once; a
        # budget of one move suppresses that plan.
        def chain(name, nic_gbps):
            nfs = [NFProfile(name=f"{name}/nf{i}",
                             nic_capacity_bps=gbps(capacity),
                             cpu_capacity_bps=gbps(10.0))
                   for i, capacity in enumerate(nic_gbps)]
            return Placement(ServiceChain(nfs, name=name),
                             {nf.name: S for nf in nfs}, egress=C)

        controller = HardenedController(config=HardeningConfig(
            migration_budget=1, enable_pullback=False))
        runner = two_chain_runner(gbps(2.2), gbps(1.0), 0.01, controller,
                                  placements=(chain("p", [2.0, 2.0]),
                                              chain("q", [10.0])))
        runner.run_chains()
        assert controller.suppressed_plans == 1
        assert len(controller.migrations) <= 1

    def test_naive_policy_plans_across_chains(self):
        # Naive is PAM's loop with a wider pick rule, so it runs on
        # co-located chains too: it pushes chain f's NIC bottleneck
        # f/monitor aside mid-segment, +2 crossings, where PAM would
        # move the border f/logger.
        _, chain_f = (ChainBuilder("f", profiles=catalog.FIGURE1_SCENARIO)
                      .cpu("load_balancer", rename="f/lb")
                      .nic("logger", rename="f/logger")
                      .nic("monitor", rename="f/monitor")
                      .nic("firewall", rename="f/firewall")
                      .build(egress=C))
        runner, results = self.run_closed_loop(
            gbps(1.5), gbps(0.2), policy=NaivePolicy(),
            placements=(chain_f, chain_b()))
        assert [r.nf_name for r in runner.controller.migrations] == \
            ["f/monitor"]
        final = runner.server.placements[0]
        assert final.device_of("f/monitor") is C
        assert final.pcie_crossings() == chain_f.pcie_crossings() + 2
        assert runner.server.placements[1] == chain_b()
        for result in results.values():
            assert result.dropped == 0


class TestColocatedPullback:
    """Pull-back plans over every chain's load model, like PAM."""

    def test_pulls_back_across_chains(self):
        pushed = (chain_a().moved("a/monitor", C), chain_b())
        loads = (LoadModel(pushed[0], gbps(0.3)),
                 LoadModel(pushed[1], gbps(1.0)))
        # Summed NIC: 0.3/4 + 0.4125 = 0.4875, under trigger_below.
        plan = select_pullback(loads, eligible={"a/monitor"})
        assert plan.migrated_names == ["a/monitor"]
        assert plan.afters == (chain_a(), chain_b())

    def test_guard_band_judges_the_summed_nic(self):
        pushed = (chain_a().moved("a/monitor", C), chain_b())
        # Chain a alone sits at 0.075, far under trigger_below; chain
        # b's 1.2 Gbps lifts the shared NIC to 0.57 and holds the pull.
        loads = (LoadModel(pushed[0], gbps(0.3)),
                 LoadModel(pushed[1], gbps(1.2)))
        plan = select_pullback(loads, eligible={"a/monitor"})
        assert plan.is_noop
        assert "too busy" in plan.notes[0]

    def test_pushed_nf_returns_after_spike(self):
        # Chain a spikes the shared NIC past capacity, PAM pushes
        # a/monitor aside, and pull-back returns it once the spike ends.
        config = HardeningConfig(
            cooldown_s=0.0, flap_damp_s=0.0,
            pullback=PullbackConfig(trigger_below=0.6, nic_target=0.9))
        controller = HardenedController(config=config)
        server = ServerProfile().build()
        server.install(chain_a(), chain_b())
        profile = spike(base_bps=gbps(0.3), peak_bps=gbps(1.1),
                        start_s=0.005, duration_s=0.02)
        runner = SimulationRunner(server, [
            ProfiledArrivals(profile, FixedSize(256), 0.06, seed=11,
                             jitter=False),
            ConstantBitRate(gbps(1.0), FixedSize(256), 0.06, seed=2),
        ], controller)
        results = runner.run_chains()
        # Pushed to the CPU during the spike, back on the NIC after it.
        assert [r.nf_name for r in controller.migrations] == \
            ["a/monitor", "a/monitor"]
        assert server.placements == (chain_a(), chain_b())
        for result in results:
            assert result.dropped == 0
