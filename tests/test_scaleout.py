"""Scale-out fallback planning (OpenNF-style replication)."""

import pytest

from repro.baselines.naive import NaivePolicy
from repro.baselines.scaleout import (ScaleOutFallbackPolicy, plan_scaleout)
from repro.devices.cpu import CPU
from repro.errors import ScaleOutRequired
from repro.resources.model import LoadModel
from repro.traffic.flows import FlowTable
from repro.units import gbps


class TestPlanScaleout:
    def test_replicates_the_nic_bottleneck(self, fig1_placement):
        plan = plan_scaleout(fig1_placement, gbps(2.2))
        assert plan.nf_name == "monitor"
        assert plan.instances >= 2

    def test_predicted_loads_under_one(self, fig1_placement):
        plan = plan_scaleout(fig1_placement, gbps(2.2))
        assert plan.alleviates
        assert plan.predicted_nic_utilisation < 1.0
        assert plan.predicted_cpu_utilisation < 1.0

    def test_even_share_is_reciprocal(self, fig1_placement):
        plan = plan_scaleout(fig1_placement, gbps(2.2))
        assert plan.even_share == pytest.approx(1.0 / plan.instances)

    def test_hash_split_worst_share_at_least_even(self, fig1_placement):
        plan = plan_scaleout(fig1_placement, gbps(2.2),
                             flow_table=FlowTable(num_flows=64, seed=1))
        assert plan.worst_share >= plan.even_share

    def test_raises_when_instance_cap_too_low(self, fig1_placement):
        with pytest.raises(ScaleOutRequired):
            plan_scaleout(fig1_placement, gbps(9.0), max_instances=2)

    def test_cpu_core_budget_respected(self, fig1_placement):
        cramped = CPU("cpu", num_sockets=1, cores_per_socket=1)
        with pytest.raises(ScaleOutRequired):
            plan_scaleout(fig1_placement, gbps(2.6), cpu=cramped)


class TestFallbackPolicy:
    def test_passes_through_when_inner_succeeds(self, fig1_loads):
        policy = ScaleOutFallbackPolicy(NaivePolicy())
        plan = policy.select(fig1_loads)
        assert plan.migrated_names == ["monitor"]
        assert policy.scaleout_plans == []

    def test_plans_scaleout_when_inner_gives_up(self):
        # A scenario where whole-NF migration is hopeless (the monitor
        # is too slow on the CPU to move in one piece) but *splitting*
        # it across replicas fits: exactly the case OpenNF handles and
        # the paper defers to.
        from repro.chain.builder import ChainBuilder
        from repro.chain.nf import DeviceKind, NFProfile
        monitor = NFProfile(name="monitor", nic_capacity_bps=gbps(1.0),
                            cpu_capacity_bps=gbps(1.2), stateful=True)
        firewall = NFProfile(name="firewall", nic_capacity_bps=gbps(2.0),
                             cpu_capacity_bps=gbps(4.0), stateful=True)
        lb = NFProfile(name="lb", nic_capacity_bps=gbps(20.0),
                       cpu_capacity_bps=gbps(4.0), stateful=True)
        placement = (ChainBuilder("s")
                     .add(lb, DeviceKind.CPU)
                     .add(monitor, DeviceKind.SMARTNIC)
                     .add(firewall, DeviceKind.SMARTNIC)
                     .build(egress=DeviceKind.CPU))[1]
        policy = ScaleOutFallbackPolicy(NaivePolicy())
        plan = policy.select((LoadModel(placement, gbps(1.0)),))
        assert plan.is_noop  # migration-wise
        assert len(policy.scaleout_plans) == 1
        scale = policy.scaleout_plans[0]
        assert scale.nf_name == "monitor"
        assert scale.alleviates
