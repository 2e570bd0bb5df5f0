"""Property-based tests: border-set invariants (the paper's key claim)."""

from hypothesis import given

from repro.chain.nf import DeviceKind
from repro.core.border import border_sets

from .test_property_placement import placements

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC


class TestBorderDefinition:
    @given(placements())
    def test_borders_are_nic_resident(self, placement):
        sets = border_sets(placement)
        for name in sets.all:
            assert placement.device_of(name) is S

    @given(placements())
    def test_border_moves_never_add_crossings(self, placement):
        # THE paper invariant: pushing any border NF to the CPU keeps
        # the PCIe crossing count constant (or shrinks it).
        sets = border_sets(placement)
        for name in sets.all:
            assert placement.crossing_delta(name, C) <= 0

    @given(placements())
    def test_non_border_nic_moves_add_exactly_two(self, placement):
        sets = border_sets(placement)
        for nf in placement.nic_nfs():
            if nf.name not in sets.all:
                assert placement.crossing_delta(nf.name, C) == 2

    @given(placements())
    def test_per_segment_border_counts(self, placement):
        # Each NIC segment contributes its first NF to B_L iff the hop
        # before it is CPU-side, and its last to B_R iff the hop after
        # is; interior NFs are never borders.
        sets = border_sets(placement)
        for segment in placement.segments(S):
            interior = set(segment[1:-1])
            assert not (interior & sets.all)

    @given(placements())
    def test_singleton_in_both_sets_iff_surrounded(self, placement):
        sets = border_sets(placement)
        both = sets.left & sets.right
        for name in both:
            # Surrounded on both sides by CPU hops.
            assert placement.crossing_delta(name, C) == -2
