"""Property tests: multi-chain aggregate model and cross-chain PAM."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.chain import ServiceChain
from repro.chain.nf import DeviceKind, NFProfile
from repro.chain.placement import Placement
from repro.multichain import ChainLoad, MultiChainLoadModel, select_multichain
from repro.units import gbps

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC


@st.composite
def chain_sets(draw):
    """1-3 co-located chains with globally unique NF names."""
    num_chains = draw(st.integers(1, 3))
    chains = []
    for chain_index in range(num_chains):
        length = draw(st.integers(1, 4))
        nfs = [NFProfile(name=f"c{chain_index}/nf{i}",
                         nic_capacity_bps=gbps(draw(st.floats(1.0, 10.0))),
                         cpu_capacity_bps=gbps(draw(st.floats(1.0, 10.0))))
               for i in range(length)]
        chain = ServiceChain(nfs, name=f"c{chain_index}")
        devices = draw(st.lists(st.sampled_from([S, C]),
                                min_size=length, max_size=length))
        placement = Placement(chain, {nf.name: device for nf, device
                                      in zip(nfs, devices)})
        rate = gbps(draw(st.floats(0.1, 3.0)))
        chains.append(ChainLoad(placement, rate))
    return chains


class TestAggregateConsistency:
    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_utilisation_is_sum_of_singles(self, chains):
        model = MultiChainLoadModel(chains)
        for device in (S, C):
            singles = sum(c.model().device_load(device).utilisation
                          for c in chains)
            assert model.device_utilisation(device) == \
                pytest_approx(singles)


class TestCrossChainPAMProperties:
    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_plan_never_adds_crossings_anywhere(self, chains):
        plan = select_multichain(chains, strict=False)
        for before, after in zip(plan.before, plan.after):
            assert after.placement.pcie_crossings() <= \
                before.placement.pcie_crossings()

    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_success_leaves_both_devices_under_one(self, chains):
        plan = select_multichain(chains, strict=False)
        after = MultiChainLoadModel(list(plan.after))
        if plan.alleviates and plan.actions:
            assert after.nic_utilisation() < 1.0
            assert after.cpu_utilisation() < 1.0

    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_noop_iff_not_overloaded(self, chains):
        model = MultiChainLoadModel(chains)
        plan = select_multichain(chains, strict=False)
        if not model.nic_overloaded():
            assert plan.is_noop

    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_untouched_chains_keep_their_placement(self, chains):
        plan = select_multichain(chains, strict=False)
        touched = {action.chain_index for action in plan.actions}
        for index, (before, after) in enumerate(zip(plan.before,
                                                    plan.after)):
            if index not in touched:
                assert before.placement == after.placement


def pytest_approx(value):
    import pytest
    return pytest.approx(value, rel=1e-9, abs=1e-12)
