"""Property tests: multi-chain aggregate model and cross-chain PAM."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.chain import ServiceChain
from repro.chain.nf import DeviceKind, NFProfile
from repro.chain.placement import Placement
from repro.core.planner import PAMPolicy
from repro.resources.model import LoadModel, shared_utilisation
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
        chains.append(LoadModel(placement, rate))
    return tuple(chains)


def select(chains):
    """PAM over the chains, returning the partial plan when it cannot
    alleviate."""
    return PAMPolicy(strict=False).select(chains)


def after_loads(plan, chains):
    """Each chain's load model on the plan's after-placement."""
    return tuple(LoadModel(placement, chain.throughput)
                 for placement, chain in zip(plan.afters, chains))


class TestAggregateConsistency:
    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_utilisation_is_sum_of_singles(self, chains):
        for device in (S, C):
            singles = sum(c.device_load(device).utilisation
                          for c in chains)
            assert shared_utilisation(chains, device) == \
                pytest_approx(singles)


class TestCrossChainPAMProperties:
    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_plan_never_adds_crossings_anywhere(self, chains):
        plan = select(chains)
        for before, after in zip(plan.befores, plan.afters):
            assert after.pcie_crossings() <= before.pcie_crossings()

    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_success_leaves_both_devices_under_one(self, chains):
        plan = select(chains)
        after = after_loads(plan, chains)
        if plan.alleviates and plan.actions:
            assert shared_utilisation(after, S) < 1.0
            assert shared_utilisation(after, C) < 1.0

    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_noop_iff_not_overloaded(self, chains):
        plan = select(chains)
        if shared_utilisation(chains, S) < 1.0:
            assert plan.is_noop

    @given(chain_sets())
    @settings(max_examples=50, deadline=None)
    def test_untouched_chains_keep_their_placement(self, chains):
        plan = select(chains)
        for index, (before, after) in enumerate(zip(plan.befores,
                                                    plan.afters)):
            if not plan.actions_for_chain(index):
                assert before == after


def pytest_approx(value):
    import pytest
    return pytest.approx(value, rel=1e-9, abs=1e-12)
