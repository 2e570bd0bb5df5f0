"""Property-based tests: PAM post-conditions over random chains/loads."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.greedy_border import GreedyBorderPolicy
from repro.baselines.naive import NaivePolicy
from repro.baselines.naive import select as naive_select
from repro.baselines.random_policy import RandomPolicy
from repro.chain.chain import ServiceChain
from repro.chain.nf import DeviceKind, NFProfile
from repro.chain.placement import Placement
from repro.core.border import border_sets
from repro.core.pam import select as pam_select
from repro.core.planner import PAMPolicy
from repro.resources.model import LoadModel
from repro.units import gbps

from .test_property_placement import placements

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC

loads = st.floats(min_value=0.1, max_value=6.0).map(gbps)


def placement_of(rows):
    """A chain with default endpoints from ``(name, theta^S Gbps,
    theta^C Gbps, device)`` rows."""
    nfs = [NFProfile(name=name, nic_capacity_bps=gbps(nic),
                     cpu_capacity_bps=gbps(cpu))
           for name, nic, cpu, __ in rows]
    return Placement(ServiceChain(nfs),
                     {name: device for name, __, __, device in rows})


#: Moving nf2 leaves the re-summed NIC load at exactly 1.0, while
#: subtracting nf2's share from the sum rounds just below it.
EQ3_TIE = (placement_of([("nf0", 1.0, 5.0, S), ("nf1", 2.0, 3.0, C),
                         ("nf2", 0.75, 12.0, S), ("nf3", 1.0, 8.0, S)]),
           gbps(0.5))
#: Moving nf1 leaves the re-summed CPU load at exactly 1.0, while adding
#: nf1's share to the sum rounds just below it.
EQ2_TIE = (placement_of([("nf0", 3.0, 0.5, C), ("nf1", 0.25, 1.5, S),
                         ("nf2", 1.0, 0.75, C)]),
           gbps(0.25))

#: Every policy that runs the shared push-aside loop on one chain.
LOOP_POLICIES = [PAMPolicy(strict=False),
                 NaivePolicy(strict=False),
                 RandomPolicy(seed=1, strict=False),
                 GreedyBorderPolicy()]


class TestPAMPostConditions:
    @given(placements(min_len=2, max_len=8), loads)
    @settings(max_examples=60, deadline=None)
    def test_never_adds_crossings(self, placement, load):
        plan = pam_select(placement, load, strict=False)
        assert plan.total_crossing_delta <= 0
        assert plan.after.pcie_crossings() <= placement.pcie_crossings()

    @pytest.mark.parametrize("policy", LOOP_POLICIES,
                             ids=[policy.name for policy in LOOP_POLICIES])
    @given(placement=placements(min_len=2, max_len=8), load=loads)
    @example(*EQ3_TIE)
    @example(*EQ2_TIE)
    @settings(max_examples=60, deadline=None)
    def test_success_implies_both_devices_ok(self, policy, placement,
                                             load):
        plan = policy.select((LoadModel(placement, load),))
        if plan.alleviates:
            after = LoadModel(plan.after, load)
            if plan.actions:
                # Eq. 3 alleviated the NIC and every Eq. 2 check kept
                # the CPU strictly under capacity.
                assert after.nic_load().utilisation < 1.0
                assert after.cpu_load().utilisation < 1.0
            else:
                # Empty success plan: the NIC was simply not overloaded
                # (the CPU is not the policy's concern in that case).
                assert not after.nic_load().overloaded

    @given(placements(min_len=2, max_len=8), loads)
    @settings(max_examples=60, deadline=None)
    def test_migrates_only_borders_of_intermediate_placements(
            self, placement, load):
        plan = pam_select(placement, load, strict=False)
        current = placement
        for action in plan.actions:
            assert action.nf_name in border_sets(current).all
            current = current.moved(action.nf_name, action.target)

    @given(placements(min_len=2, max_len=8), loads)
    @settings(max_examples=60, deadline=None)
    def test_no_nf_migrates_twice(self, placement, load):
        plan = pam_select(placement, load, strict=False)
        names = plan.migrated_names
        assert len(names) == len(set(names))

    @given(placements(min_len=2, max_len=8), loads)
    @settings(max_examples=60, deadline=None)
    def test_plan_internally_consistent(self, placement, load):
        # validate() is also called inside select(); re-run explicitly.
        pam_select(placement, load, strict=False).validate()

    @given(placements(min_len=2, max_len=8), loads)
    @settings(max_examples=60, deadline=None)
    def test_noop_iff_nic_not_overloaded(self, placement, load):
        plan = pam_select(placement, load, strict=False)
        overloaded = LoadModel(placement, load).nic_load().overloaded
        if not overloaded:
            assert plan.is_noop
        if plan.is_noop and plan.alleviates:
            assert not overloaded


class TestPAMvsNaive:
    @given(placements(min_len=2, max_len=8), loads)
    @settings(max_examples=60, deadline=None)
    def test_pam_never_more_crossings_than_naive(self, placement, load):
        pam = pam_select(placement, load, strict=False)
        naive = naive_select(placement, load, strict=False)
        if pam.alleviates and naive.alleviates:
            assert pam.after.pcie_crossings() <= \
                naive.after.pcie_crossings()

    @given(placements(min_len=2, max_len=8), loads)
    @settings(max_examples=60, deadline=None)
    def test_naive_alleviates_whenever_pam_does(self, placement, load):
        # Naive's candidate pool is a superset of PAM's, so PAM success
        # implies naive success (the converse is false).
        pam = pam_select(placement, load, strict=False)
        if pam.alleviates:
            naive = naive_select(placement, load, strict=False)
            assert naive.alleviates


class TestPAMvsMultiChain:
    @given(placement=placements(min_len=2, max_len=8), load=loads)
    @example(*EQ3_TIE)
    @settings(max_examples=60, deadline=None)
    def test_one_chain_multichain_matches_chain_pam(self, placement, load):
        # A single chain is the one-chain case of the shared loop.
        chain = pam_select(placement, load, strict=False)
        multi = PAMPolicy(strict=False).select(
            (LoadModel(placement, load),))
        assert [(multi.befores[0].chain.name, a.nf_name, a.crossing_delta)
                for a in multi.actions] == \
            [(placement.chain.name, a.nf_name, a.crossing_delta)
             for a in chain.actions]
        assert multi.actions_for_chain(0) == list(multi.actions)
        assert multi.alleviates == chain.alleviates
