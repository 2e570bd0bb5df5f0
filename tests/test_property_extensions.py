"""Property-based tests for the extension modules: pull-back, traces,
graphs, filtering maths."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chain.graph import EGRESS, INGRESS, Edge, GraphPlacement, ServiceGraph
from repro.chain.nf import DeviceKind, NFProfile
from repro.core.pam import select as pam_select
from repro.core.reverse import PullbackConfig, select_pullback
from repro.resources.model import LoadModel, filtered_throughput
from repro.traffic.trace import PacketTrace, TraceEntry, TraceReplay
from repro.units import gbps

from .test_property_placement import placements

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC

loads = st.floats(min_value=0.1, max_value=4.0).map(gbps)


class TestPullbackProperties:
    @given(placements(min_len=1, max_len=8), loads)
    @settings(max_examples=50, deadline=None)
    def test_never_adds_crossings(self, placement, load):
        plan = select_pullback((LoadModel(placement, load),))
        assert plan.after.pcie_crossings() <= placement.pcie_crossings()

    @given(placements(min_len=1, max_len=8), loads)
    @settings(max_examples=50, deadline=None)
    def test_never_overloads_the_nic(self, placement, load):
        plan = select_pullback((LoadModel(placement, load),))
        after = LoadModel(plan.after, load)
        config = PullbackConfig()
        if plan.actions:
            assert after.nic_load().utilisation < config.nic_target

    @given(placements(min_len=1, max_len=8), loads)
    @settings(max_examples=50, deadline=None)
    def test_only_moves_toward_the_nic(self, placement, load):
        plan = select_pullback((LoadModel(placement, load),))
        for action in plan.actions:
            assert action.source is C
            assert action.target is S

    @given(placements(min_len=2, max_len=6), loads)
    @settings(max_examples=40, deadline=None)
    def test_push_then_pull_is_stable(self, placement, load):
        """After PAM + pull-back at the same load, re-running either
        produces no further action (a fixed point, no oscillation)."""
        pushed = pam_select(placement, load, strict=False)
        assume(pushed.alleviates)
        pulled = select_pullback((LoadModel(pushed.after, load),),
                                 eligible=pushed.migrated_names)
        again = select_pullback((LoadModel(pulled.after, load),),
                                eligible=pushed.migrated_names)
        assert again.is_noop
        # And PAM stays quiet on the pulled-back placement too.
        re_push = pam_select(pulled.after, load, strict=False)
        if pulled.actions:
            # Pull-back only acts below trigger_below (0.5 util), far
            # under the overload threshold, so PAM must not re-fire.
            assert re_push.is_noop


class TestTraceProperties:
    entries = st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0),
                  st.integers(min_value=64, max_value=1500),
                  st.integers(min_value=0, max_value=63)),
        min_size=1, max_size=60)

    @given(entries)
    @settings(max_examples=60, deadline=None)
    def test_serialisation_roundtrip(self, raw):
        raw.sort(key=lambda item: item[0])
        trace = PacketTrace([TraceEntry(*item) for item in raw])
        again = PacketTrace.loads(trace.dumps())
        assert again.entries == trace.entries

    @given(entries, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_time_scaling_preserves_counts_and_sizes(self, raw, scale):
        raw.sort(key=lambda item: item[0])
        trace = PacketTrace([TraceEntry(*item) for item in raw])
        packets = list(TraceReplay(trace, time_scale=scale).packets())
        assert len(packets) == len(trace)
        assert [p.size_bytes for p in packets] == \
            [e.size_bytes for e in trace.entries]
        arrivals = [p.arrival_s for p in packets]
        assert arrivals == sorted(arrivals)


class TestFilteredThroughputProperties:
    pass_rates = st.lists(st.floats(min_value=0.05, max_value=1.0),
                          min_size=1, max_size=8)

    @given(pass_rates, st.floats(min_value=0.0, max_value=10.0).map(gbps))
    @settings(max_examples=80, deadline=None)
    def test_thinning_is_monotone_along_the_chain(self, rates, load):
        from repro.chain.chain import ServiceChain
        nfs = [NFProfile(name=f"nf{i}", pass_rate=rate)
               for i, rate in enumerate(rates)]
        chain = ServiceChain(nfs)
        spec = filtered_throughput(chain, load)
        values = [spec[nf.name] for nf in chain]
        assert values == sorted(values, reverse=True)
        assert values[0] == load

    @given(pass_rates, st.floats(min_value=0.1, max_value=10.0).map(gbps))
    @settings(max_examples=80, deadline=None)
    def test_total_thinning_is_product_of_rates(self, rates, load):
        from repro.chain.chain import ServiceChain
        nfs = [NFProfile(name=f"nf{i}", pass_rate=rate)
               for i, rate in enumerate(rates)]
        chain = ServiceChain(nfs)
        spec = filtered_throughput(chain, load)
        expected_last = load
        for rate in rates[:-1]:
            expected_last *= rate
        assert spec[f"nf{len(rates) - 1}"] == \
            pytest_approx(expected_last)


def pytest_approx(value):
    import pytest
    return pytest.approx(value, rel=1e-9)


class TestGraphProperties:
    @st.composite
    def layered_graphs(draw):
        """Random 3-layer fork/join graphs with valid fractions."""
        width = draw(st.integers(min_value=1, max_value=4))
        branch_caps = draw(st.lists(
            st.floats(min_value=1.0, max_value=10.0),
            min_size=width, max_size=width))
        nfs = [NFProfile(name="head", nic_capacity_bps=gbps(10),
                         cpu_capacity_bps=gbps(5))]
        edges = [Edge(INGRESS, "head")]
        # Even split across branches.
        fraction = 1.0 / width
        fractions = [fraction] * (width - 1)
        fractions.append(1.0 - sum(fractions))  # exact sum
        for index in range(width):
            name = f"branch{index}"
            nfs.append(NFProfile(
                name=name, nic_capacity_bps=gbps(branch_caps[index]),
                cpu_capacity_bps=gbps(branch_caps[index])))
            edges.append(Edge("head", name, fractions[index]))
            edges.append(Edge(name, "tail"))
        nfs.append(NFProfile(name="tail", nic_capacity_bps=gbps(10),
                             cpu_capacity_bps=gbps(5)))
        edges.append(Edge("tail", EGRESS))
        return ServiceGraph(nfs, edges)

    @given(layered_graphs())
    @settings(max_examples=40, deadline=None)
    def test_shares_conserved_at_join(self, graph):
        assert graph.node_share("tail") == pytest_approx(1.0)
        branch_total = sum(graph.node_share(name) for name in
                           graph.names() if name.startswith("branch"))
        assert branch_total == pytest_approx(1.0)

    @given(layered_graphs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_crossing_delta_consistent_with_recompute(self, graph, data):
        assignment = {name: data.draw(st.sampled_from([S, C]),
                                      label=name)
                      for name in graph.names()}
        placement = GraphPlacement(graph, assignment)
        name = data.draw(st.sampled_from(graph.names()), label="mover")
        target = placement.device_of(name).other()
        delta = placement.crossing_delta(name, target)
        moved = placement.moved(name, target)
        assert moved.expected_crossings() == pytest_approx(
            placement.expected_crossings() + delta)
