"""Eq. 2 / Eq. 3 constraint checks."""

from dataclasses import replace

import pytest

from repro.chain import catalog
from repro.chain.nf import DeviceKind
from repro.core.pam import select
from repro.harness.scenarios import figure1
from repro.resources.model import LoadModel
from repro.units import gbps

C = DeviceKind.CPU


@pytest.fixture
def load(fig1_placement):
    return LoadModel(fig1_placement, gbps(1.8))


class TestEq2:
    """Eq. 2 as the selection loop judges it: the CPU utilisation of the
    placement with the candidate moved there."""

    def test_logger_fits_on_cpu(self, load):
        # 0.45 + 0.45 = 0.9 < 1
        moved = load.after_move("logger", C)
        assert moved.cpu_load().utilisation == pytest.approx(0.9)
        assert moved.cpu_load().utilisation < 1.0

    def test_strict_inequality_at_exactly_one(self, fig1_placement):
        # At 2.0 Gbps: 0.5 + 0.5 = 1.0, which the paper's strict
        # inequality rejects.
        load = LoadModel(fig1_placement, gbps(2.0))
        assert load.after_move("logger", C).cpu_load().utilisation == 1.0
        plan = select(fig1_placement, gbps(2.0), strict=False)
        assert "logger" not in plan.migrated_names
        assert "eq2 rejects logger (cpu would overload)" in plan.notes

    def test_cpu_incapable_nf_rejected(self):
        profiles = dict(catalog.FIGURE1_SCENARIO)
        profiles["logger"] = replace(profiles["logger"], cpu_capable=False)
        placement = figure1(profiles=profiles).placement
        plan = select(placement, gbps(1.8), strict=False)
        assert "logger" not in plan.migrated_names
        assert "eq2 rejects logger (cpu would overload)" in plan.notes


class TestEq3:
    """Eq. 3 as the selection loop judges it: the SmartNIC utilisation
    of the placement with the candidate gone."""

    def test_removing_logger_alleviates(self, load):
        # 1.8 * (1/3.2 + 1/10) = 0.7425 < 1
        assert load.after_move("logger", C).nic_load().utilisation < 1.0

    def test_removing_firewall_does_not(self, load):
        # 1.8 * (1/4 + 1/3.2) = 1.0125 >= 1
        assert load.after_move("firewall", C).nic_load().utilisation >= 1.0

    def test_nic_alleviated_current_state(self, fig1_placement):
        assert LoadModel(fig1_placement,
                         gbps(1.8)).nic_load().utilisation >= 1.0
        assert LoadModel(fig1_placement,
                         gbps(1.0)).nic_load().utilisation < 1.0


class TestJointOverload:
    def test_not_both_at_canonical_load(self, load):
        assert load.nic_load().utilisation >= 1.0
        assert load.cpu_load().utilisation < 1.0

    def test_both_at_extreme_load(self, fig1_placement):
        load = LoadModel(fig1_placement, gbps(8.0))
        assert load.nic_load().utilisation >= 1.0
        assert load.cpu_load().utilisation >= 1.0
