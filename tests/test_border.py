"""Step 1: border vNF identification, and the border sets across moves."""

import pytest

from repro.chain import catalog
from repro.chain.builder import ChainBuilder
from repro.chain.nf import DeviceKind
from repro.core.border import border_sets

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC


class TestFigure1Borders:
    def test_left_border_is_logger(self, fig1_placement):
        sets = border_sets(fig1_placement)
        assert sets.left == {"logger"}

    def test_right_border_is_firewall(self, fig1_placement):
        # The chain terminates at the host, so firewall's "downstream"
        # is the CPU — the paper's right border.
        sets = border_sets(fig1_placement)
        assert sets.right == {"firewall"}

    def test_all_union(self, fig1_placement):
        sets = border_sets(fig1_placement)
        assert sets.all == {"logger", "firewall"}
        assert "logger" in sets
        assert "monitor" not in sets


class TestEndpointConventions:
    def test_bump_in_wire_nic_chain_has_no_borders(self, nic_only_placement):
        # Wire endpoints count as SmartNIC: an all-NIC bump-in-the-wire
        # chain has no CPU adjacency anywhere.
        sets = border_sets(nic_only_placement)
        assert sets.all == frozenset()

    def test_head_nf_is_left_border_with_host_ingress(self):
        _, placement = (ChainBuilder("h", profiles=catalog.FIGURE1_SCENARIO)
                        .nic("monitor").nic("firewall")
                        .build(ingress=C))
        sets = border_sets(placement)
        assert "monitor" in sets.left

    def test_singleton_nic_segment_is_both_borders(self):
        _, placement = (ChainBuilder("s", profiles=catalog.FIGURE1_SCENARIO)
                        .cpu("load_balancer").nic("monitor").cpu("firewall")
                        .build())
        sets = border_sets(placement)
        assert "monitor" in sets.left
        assert "monitor" in sets.right

    def test_multiple_nic_segments_have_multiple_borders(self):
        _, placement = (ChainBuilder("m")
                        .nic("gateway").cpu("dpi").nic("monitor")
                        .nic("firewall").cpu("load_balancer")
                        .build())
        sets = border_sets(placement)
        assert sets.left == {"monitor"}
        assert sets.right == {"gateway", "firewall"}


class TestIncrementalMaintenance:
    """Step 3's bookkeeping, as the selection loop sees it: the border
    sets recomputed on the placement after each move."""

    def test_left_migration_promotes_downstream(self, fig1_placement):
        after = fig1_placement.moved("logger", C)
        refreshed = border_sets(after)
        assert refreshed.left == {"monitor"}
        assert refreshed.right == {"firewall"}

    def test_right_migration_promotes_upstream(self, fig1_placement):
        after = fig1_placement.moved("firewall", C)
        refreshed = border_sets(after)
        assert refreshed.right == {"monitor"}
        assert refreshed.left == {"logger"}

    def test_last_nic_nf_leaves_empty_sets(self):
        _, placement = (ChainBuilder("s", profiles=catalog.FIGURE1_SCENARIO)
                        .cpu("load_balancer").nic("monitor").cpu("firewall")
                        .build())
        assert border_sets(placement).all == {"monitor"}
        after = placement.moved("monitor", C)
        assert border_sets(after).all == frozenset()
