"""The paper's equations, verified symbol by symbol.

A reproduction should make the paper's maths executable.  These tests
take each numbered equation from S2 and check our implementation
evaluates it exactly as written, using hand-computed values on the
canonical scenario — independent of the algorithm code paths the other
tests exercise.
"""

import pytest

from repro.chain.nf import DeviceKind
from repro.core.border import border_sets
from repro.core.pam import select
from repro.resources.model import LoadModel
from repro.units import gbps

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC

#: Figure-1 scenario capacities (Gbps) — see catalog.FIGURE1_SCENARIO.
THETA_S = {"logger": 4.0, "monitor": 3.2, "firewall": 10.0,
           "load_balancer": 20.0}
THETA_C = {"logger": 4.0, "monitor": 10.0, "firewall": 4.0,
           "load_balancer": 4.0}


class TestResourceConsumptionModel:
    """S2: 'the ratio of consumed resource on SmartNIC is
    theta_cur / theta_i^S' (after CoCo [5])."""

    @pytest.mark.parametrize("nf,theta", THETA_S.items())
    def test_nic_share(self, fig1_placement, nf, theta):
        theta_cur = 1.8
        load = LoadModel(fig1_placement, gbps(theta_cur))
        profile = fig1_placement.chain.get(nf)
        assert profile.utilisation_share(S, gbps(theta_cur)) == \
            pytest.approx(theta_cur / theta)

    def test_device_sum_is_linear(self, fig1_placement):
        half = LoadModel(fig1_placement, gbps(0.9)).nic_load().utilisation
        full = LoadModel(fig1_placement, gbps(1.8)).nic_load().utilisation
        assert full == pytest.approx(2 * half)


class TestEquation1:
    """Eq. 1: b0 = argmin_{b in B_L ∪ B_R} theta_b^S."""

    def test_argmin_over_the_border_union(self, fig1_placement):
        sets = border_sets(fig1_placement)
        assert sets.all == {"logger", "firewall"}
        by_theta = min(sets.all, key=lambda name: THETA_S[name])
        plan = select(fig1_placement, gbps(1.8))
        assert plan.migrated_names[0] == by_theta == "logger"


class TestEquation2:
    """Eq. 2: sum_{i on C} theta_cur/theta_i^C + theta_cur/theta_b0^C < 1."""

    def test_lhs_hand_computed(self, fig1_placement):
        theta_cur = 1.8
        load = LoadModel(fig1_placement, gbps(theta_cur))
        b0 = fig1_placement.chain.get("logger")
        lhs = load.cpu_load_with(b0)
        hand = theta_cur / THETA_C["load_balancer"] + \
            theta_cur / THETA_C["logger"]
        assert lhs == pytest.approx(hand) == pytest.approx(0.9)
        assert lhs < 1  # the constraint holds, so PAM may migrate

    def test_violated_at_two_gbps(self, fig1_placement):
        # 2.0/4 + 2.0/4 = 1.0, and the paper's inequality is strict.
        load = LoadModel(fig1_placement, gbps(2.0))
        b0 = fig1_placement.chain.get("logger")
        assert not load.cpu_load_with(b0) < 1


class TestEquation3:
    """Eq. 3: sum_{i on S, i != b0} theta_cur/theta_i^S < 1."""

    def test_lhs_hand_computed(self, fig1_placement):
        theta_cur = 1.8
        load = LoadModel(fig1_placement, gbps(theta_cur))
        b0 = fig1_placement.chain.get("logger")
        lhs = load.nic_load_without(b0)
        hand = theta_cur / THETA_S["monitor"] + \
            theta_cur / THETA_S["firewall"]
        assert lhs == pytest.approx(hand) == pytest.approx(0.7425)
        assert lhs < 1  # alleviated: the algorithm terminates

    def test_algorithm_terminates_exactly_here(self, fig1_placement):
        plan = select(fig1_placement, gbps(1.8))
        assert len(plan.actions) == 1  # Eq. 3 held after one migration
        assert plan.alleviates


class TestStepThreeBookkeeping:
    """'If b0 in B_L, we remove it from B_L and add its downstream
    element into the set if [it] is also placed on SmartNIC.'"""

    def test_downstream_promotion(self, fig1_placement):
        sets = border_sets(fig1_placement)
        assert "logger" in sets.left
        # The selection loop recomputes Step 1 on the moved placement.
        refreshed = border_sets(fig1_placement.moved("logger", C))
        # logger's downstream (monitor) is on the SmartNIC -> joins B_L.
        assert "monitor" in refreshed.left
        assert "logger" not in refreshed.left


class TestJointOverloadRemark:
    """'If both CPU and SmartNIC are overloaded ... the network operator
    must start another instance' — surfaced as ScaleOutRequired."""

    def test_joint_overload_escalates(self, fig1_placement):
        from repro.errors import ScaleOutRequired
        with pytest.raises(ScaleOutRequired) as excinfo:
            select(fig1_placement, gbps(8.0))
        assert excinfo.value.nic_utilisation > 1
        assert excinfo.value.cpu_utilisation > 1
