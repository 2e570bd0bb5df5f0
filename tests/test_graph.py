"""Service graphs (DAGs) and graph PAM."""

import pytest

from repro.chain import catalog
from repro.chain.chain import ServiceChain
from repro.chain.graph import (EGRESS, INGRESS, Edge, GraphPlacement,
                               ServiceGraph)
from repro.chain.nf import DeviceKind, NFProfile
from repro.core import graph_pam
from repro.errors import (ConfigurationError, ScaleOutRequired,
                          UnknownNFError)
from repro.units import gbps

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC


def nf(name, nic=4.0, cpu=4.0, **kw):
    return NFProfile(name=name, nic_capacity_bps=gbps(nic),
                     cpu_capacity_bps=gbps(cpu), **kw)


@pytest.fixture
def fork_graph():
    """classifier -> {ids (30%), fastpath (70%)} -> merger."""
    return ServiceGraph(
        [nf("classifier", nic=10), nf("ids", nic=1.5, cpu=3.0),
         nf("fastpath", nic=8), nf("merger", nic=10)],
        [Edge(INGRESS, "classifier"),
         Edge("classifier", "ids", 0.3),
         Edge("classifier", "fastpath", 0.7),
         Edge("ids", "merger"),
         Edge("fastpath", "merger"),
         Edge("merger", EGRESS)],
        name="fork")


class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ConfigurationError, match="cycle"):
            ServiceGraph(
                [nf("a"), nf("b")],
                [Edge(INGRESS, "a"), Edge("a", "b", 0.5),
                 Edge("a", EGRESS, 0.5), Edge("b", "a")])

    def test_unreachable_nf_rejected(self):
        with pytest.raises(ConfigurationError, match="unreachable"):
            ServiceGraph([nf("a"), nf("b")],
                         [Edge(INGRESS, "a"), Edge("a", EGRESS),
                          Edge("b", EGRESS)])

    def test_dead_end_rejected(self):
        with pytest.raises(ConfigurationError, match="no way out"):
            ServiceGraph([nf("a"), nf("b")],
                         [Edge(INGRESS, "a"), Edge("a", "b"),
                          Edge("a", EGRESS)])

    def test_split_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sum"):
            ServiceGraph(
                [nf("a"), nf("b"), nf("c")],
                [Edge(INGRESS, "a"), Edge("a", "b", 0.5),
                 Edge("a", "c", 0.6), Edge("b", EGRESS),
                 Edge("c", EGRESS)])

    def test_reserved_names_rejected(self):
        with pytest.raises(ConfigurationError, match="reserved"):
            ServiceGraph([nf(INGRESS)], [])

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            Edge("a", "b", 0.0)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Edge("a", "a")


class TestShares:
    def test_branch_shares(self, fork_graph):
        assert fork_graph.node_share("classifier") == pytest.approx(1.0)
        assert fork_graph.node_share("ids") == pytest.approx(0.3)
        assert fork_graph.node_share("fastpath") == pytest.approx(0.7)
        assert fork_graph.node_share("merger") == pytest.approx(1.0)

    def test_edge_share(self, fork_graph):
        ids_edge = next(e for e in fork_graph.edges if e.dst == "ids")
        assert fork_graph.edge_share(ids_edge) == pytest.approx(0.3)

    def test_unknown_node(self, fork_graph):
        with pytest.raises(UnknownNFError):
            fork_graph.node_share("ghost")

    def test_chain_embedding_has_unit_shares(self):
        chain = ServiceChain([catalog.get("monitor"),
                              catalog.get("firewall")])
        graph = ServiceGraph.from_chain(chain)
        for name in graph.names():
            assert graph.node_share(name) == pytest.approx(1.0)


class TestGraphPlacement:
    def test_expected_crossings_weighted_by_share(self, fork_graph):
        # Only the IDS on the CPU: its in-edge (0.3) and out-edge (0.3)
        # cross, so expected crossings = 0.6.
        placement = GraphPlacement(fork_graph, {
            "classifier": S, "ids": C, "fastpath": S, "merger": S})
        assert placement.expected_crossings() == pytest.approx(0.6)

    def test_chain_embedding_matches_chain_crossings(self, fig1_placement):
        graph = ServiceGraph.from_chain(fig1_placement.chain)
        graph_placement = GraphPlacement(
            graph, fig1_placement.as_dict(),
            ingress=fig1_placement.ingress, egress=fig1_placement.egress)
        assert graph_placement.expected_crossings() == pytest.approx(
            fig1_placement.pcie_crossings())

    def test_crossing_delta(self, fork_graph):
        placement = GraphPlacement(fork_graph, {
            "classifier": S, "ids": C, "fastpath": S, "merger": S})
        # Moving the merger to the CPU: ids->merger stops crossing
        # (-0.3), fastpath->merger starts (+0.7), merger->egress(S)
        # starts (+1.0): delta = +1.4.
        assert placement.crossing_delta("merger", C) == pytest.approx(1.4)

    def test_incapable_assignment_rejected(self):
        graph = ServiceGraph(
            [nf("a"), nf("d", nic_capable=False)],
            [Edge(INGRESS, "a"), Edge("a", "d"), Edge("d", EGRESS)])
        with pytest.raises(ConfigurationError, match="cannot run"):
            GraphPlacement(graph, {"a": S, "d": S})

    def test_move_to_same_device_rejected(self, fork_graph):
        placement = GraphPlacement(fork_graph, {
            "classifier": S, "ids": C, "fastpath": S, "merger": S})
        with pytest.raises(ConfigurationError, match="already"):
            placement.moved("classifier", S)


class TestGraphPAM:
    def overloaded_placement(self, fork_graph):
        # All on NIC; host-terminated egress so the merger is a border.
        return GraphPlacement(fork_graph, {
            "classifier": S, "ids": S, "fastpath": S, "merger": S},
            egress=C)

    def test_no_overload_is_noop(self, fork_graph):
        placement = self.overloaded_placement(fork_graph)
        assert graph_pam.select(placement, gbps(0.5)).is_noop

    def test_candidates_respect_expected_crossings(self, fork_graph):
        placement = self.overloaded_placement(fork_graph)
        # NIC util at 2.2 Gbps: classifier 0.22 + ids 0.3*2.2/1.5=0.44
        # + fastpath 0.7*2.2/8=0.1925 + merger 0.22 = 1.07 > 1.
        plan = graph_pam.select(placement, gbps(2.2))
        assert plan.alleviates
        for action in plan.actions:
            assert action.crossing_delta <= 1e-9

    def test_migrating_ids_would_add_crossings_so_merger_moves(
            self, fork_graph):
        placement = self.overloaded_placement(fork_graph)
        plan = graph_pam.select(placement, gbps(2.2))
        # ids has the smallest theta^S (1.5) but sits mid-graph
        # (moving it costs +0.6 crossings); the merger borders the
        # host-side egress and moves for free.
        assert "ids" not in plan.migrated_names
        assert "merger" in plan.migrated_names

    def test_raises_when_hopeless(self, fork_graph):
        placement = self.overloaded_placement(fork_graph)
        with pytest.raises(ScaleOutRequired):
            graph_pam.select(placement, gbps(9.0))

    def test_chain_embedding_agrees_with_chain_pam(self, fig1_placement,
                                                   fig1_throughput):
        from repro.chain.placement import Placement
        from repro.core.pam import select as chain_select
        # A NIC at exactly capacity (0.5 + 0.5 at 1 Gbps) is overloaded:
        # Eq. 3 wants utilisation strictly below 1.
        tie_chain = ServiceChain([nf("a", nic=2.0, cpu=8.0),
                                  nf("b", nic=2.0, cpu=8.0)])
        tie = Placement.all_on(tie_chain, S, egress=C)
        cases = [(fig1_placement, fig1_throughput), (tie, gbps(1.0))]
        for placement, throughput_bps in cases:
            graph = ServiceGraph.from_chain(placement.chain)
            graph_placement = GraphPlacement(
                graph, placement.as_dict(),
                ingress=placement.ingress, egress=placement.egress)
            graph_plan = graph_pam.select(graph_placement, throughput_bps)
            chain_plan = chain_select(placement, throughput_bps)
            assert chain_plan.migrated_names
            assert graph_plan.migrated_names == chain_plan.migrated_names
