"""Noop, random, and greedy-border baselines."""

import pytest

from repro.baselines.greedy_border import GreedyBorderPolicy
from repro.baselines.noop import NoopPolicy
from repro.baselines.random_policy import RandomPolicy
from repro.core.border import border_sets
from repro.core.pam import select as pam_select
from repro.errors import ScaleOutRequired
from repro.resources.model import LoadModel
from repro.units import gbps


class TestNoop:
    def test_never_migrates(self, fig1_loads):
        plan = NoopPolicy().select(fig1_loads)
        assert plan.is_noop
        assert not plan.alleviates  # the overload persists

    def test_name(self):
        assert NoopPolicy().name == "noop"


class TestRandom:
    def test_deterministic_for_seed(self, fig1_loads):
        a = RandomPolicy(seed=9).select(fig1_loads)
        b = RandomPolicy(seed=9).select(fig1_loads)
        assert a.migrated_names == b.migrated_names

    def test_alleviates_when_it_returns(self, fig1_loads, fig1_throughput):
        plan = RandomPolicy(seed=3).select(fig1_loads)
        after = LoadModel(plan.after, fig1_throughput)
        assert after.nic_load().utilisation < 1.0

    def test_only_moves_nic_nfs(self, fig1_placement, fig1_loads):
        plan = RandomPolicy(seed=3).select(fig1_loads)
        nic_names = {nf.name for nf in fig1_placement.nic_nfs()}
        assert set(plan.migrated_names) <= nic_names

    def test_empty_plan_without_overload(self, fig1_placement):
        assert RandomPolicy().select(
            (LoadModel(fig1_placement, gbps(1.0)),)).is_noop

    def test_strict_raises_when_hopeless(self, fig1_placement):
        with pytest.raises(ScaleOutRequired):
            RandomPolicy(strict=True).select(
                (LoadModel(fig1_placement, gbps(3.0)),))


class TestGreedyBorder:
    def test_migrates_at_least_as_many_as_pam(self, fig1_placement,
                                              fig1_throughput, fig1_loads):
        pam = pam_select(fig1_placement, fig1_throughput)
        greedy = GreedyBorderPolicy().select(fig1_loads)
        assert len(greedy.migrated_names) >= len(pam.migrated_names)

    def test_migrates_only_borders(self, fig1_placement, fig1_loads):
        greedy = GreedyBorderPolicy().select(fig1_loads)
        placement = fig1_placement
        for action in greedy.actions:
            assert action.nf_name in border_sets(placement).all
            placement = placement.moved(action.nf_name, action.target)

    def test_never_adds_crossings(self, fig1_loads):
        greedy = GreedyBorderPolicy().select(fig1_loads)
        assert greedy.total_crossing_delta <= 0

    def test_wastes_cpu_relative_to_pam(self, fig1_placement,
                                        fig1_throughput, fig1_loads):
        # The quantified claim behind PAM's stopping rule: greedy
        # over-migration leaves the CPU hotter than PAM does.
        pam = pam_select(fig1_placement, fig1_throughput)
        greedy = GreedyBorderPolicy().select(fig1_loads)
        pam_cpu = LoadModel(pam.after, fig1_throughput).cpu_load()
        greedy_cpu = LoadModel(greedy.after, fig1_throughput).cpu_load()
        assert greedy_cpu.utilisation >= pam_cpu.utilisation

    def test_empty_plan_without_overload(self, fig1_placement):
        assert GreedyBorderPolicy().select(
            (LoadModel(fig1_placement, gbps(1.0)),)).is_noop
