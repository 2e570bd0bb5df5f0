"""The naive / UNO-style baseline."""

import pytest

from repro.baselines.naive import NaivePolicy, select
from repro.chain import catalog
from repro.chain.builder import ChainBuilder
from repro.chain.nf import DeviceKind
from repro.errors import ScaleOutRequired
from repro.resources.model import LoadModel
from repro.units import gbps

C = DeviceKind.CPU


class TestFigure1Story:
    def test_migrates_the_bottleneck_monitor(self, fig1_placement,
                                             fig1_throughput):
        plan = select(fig1_placement, fig1_throughput)
        assert plan.migrated_names == ["monitor"]
        assert plan.alleviates

    def test_adds_two_pcie_crossings(self, fig1_placement, fig1_throughput):
        plan = select(fig1_placement, fig1_throughput)
        assert plan.total_crossing_delta == 2

    def test_policy_label(self, fig1_placement, fig1_throughput):
        assert select(fig1_placement, fig1_throughput).policy == "naive"

    def test_alleviates_nic(self, fig1_placement, fig1_throughput):
        plan = select(fig1_placement, fig1_throughput)
        after = LoadModel(plan.after, fig1_throughput)
        assert after.nic_load().utilisation < 1.0


class TestNoOverload:
    def test_empty_plan(self, fig1_placement):
        assert select(fig1_placement, gbps(1.0)).is_noop


class TestTable1Degenerate:
    def test_naive_equals_pam_when_bottleneck_is_border(self):
        # Under the literal Table 1 numbers logger (2 Gbps) is both the
        # bottleneck and the left border: the two policies coincide
        # (the inconsistency DESIGN.md documents).
        placement = (ChainBuilder("t", profiles=catalog.TABLE1)
                     .cpu("load_balancer").nic("logger").nic("monitor")
                     .nic("firewall").build(egress=C))[1]
        from repro.core.pam import select as pam_select
        naive_plan = select(placement, gbps(1.2))
        pam_plan = pam_select(placement, gbps(1.2))
        assert naive_plan.migrated_names == pam_plan.migrated_names == \
            ["logger"]


class TestFeasibility:
    def test_eq2_rejection_moves_to_next_bottleneck(self):
        from dataclasses import replace
        profiles = dict(catalog.FIGURE1_SCENARIO)
        # Make monitor expensive on CPU so Eq. 2 rejects it.
        profiles["monitor"] = replace(profiles["monitor"],
                                      cpu_capacity_bps=gbps(2.0))
        placement = (ChainBuilder("f", profiles=profiles)
                     .cpu("load_balancer").nic("logger").nic("monitor")
                     .nic("firewall").build(egress=C))[1]
        # 1.7 Gbps: monitor on CPU -> 0.425 + 0.85 = 1.275, rejected;
        # next-smallest theta^S is logger (4.0).
        plan = select(placement, gbps(1.7))
        assert plan.migrated_names[0] == "logger"
        assert any("eq2 rejects monitor" in note for note in plan.notes)

    def test_strict_raises_when_hopeless(self, fig1_placement):
        # At 3.0 Gbps every candidate fails Eq. 2 on the CPU.
        with pytest.raises(ScaleOutRequired):
            select(fig1_placement, gbps(3.0))

    def test_non_strict_returns_partial(self, fig1_placement):
        plan = select(fig1_placement, gbps(3.0), strict=False)
        assert not plan.alleviates

    def test_succeeds_where_pam_cannot(self, fig1_placement):
        # 2.2 Gbps: PAM's border pool fails Eq. 2 (logger would push the
        # CPU to 1.1) but naive may move the mid-chain monitor, whose
        # CPU cost is low — the freedom PAM trades for latency.
        from repro.core.pam import select as pam_select
        with pytest.raises(ScaleOutRequired):
            pam_select(fig1_placement, gbps(2.2))
        plan = select(fig1_placement, gbps(2.2))
        assert plan.alleviates
        assert plan.migrated_names == ["monitor"]


class TestPolicyWrapper:
    def test_wrapper_delegates(self, fig1_loads):
        policy = NaivePolicy()
        assert policy.name == "naive"
        plan = policy.select(fig1_loads)
        assert plan.migrated_names == ["monitor"]
