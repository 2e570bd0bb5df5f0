"""Step 1 of PAM: border vNF identification.

A *border* vNF (paper S2) is a SmartNIC-resident NF whose chain
neighbour lives on the CPU side: the **left border** set ``B_L`` holds
NFs whose *upstream* neighbour is on the CPU, the **right border** set
``B_R`` those whose *downstream* neighbour is.  Chain endpoints count as
neighbours too — the placement's ingress/egress devices stand in for the
wire or the host application — so an NF adjacent to a host-terminated
chain end is a border exactly when moving it adds no PCIe crossings.

Migrating a border vNF never introduces new packet transmissions over
PCIe: the segment boundary just shifts by one NF.  That invariant (the
heart of the paper) is asserted in :func:`border_sets` post-conditions
and property-tested in ``tests/test_property_border.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Set

from ..chain.nf import DeviceKind
from ..chain.placement import Placement
from ..errors import SimulationError


@dataclass(frozen=True)
class BorderSets:
    """The left/right border sets of one placement."""

    left: FrozenSet[str]
    right: FrozenSet[str]

    @property
    def all(self) -> FrozenSet[str]:
        """``B_L ∪ B_R`` — the candidate pool of Step 2."""
        return self.left | self.right

    def __contains__(self, name: object) -> bool:
        return name in self.left or name in self.right


def _neighbour_device(placement: Placement, index: int) -> DeviceKind:
    """Device of the chain hop at ``index`` in the endpoint-padded walk.

    ``index`` ranges over ``-1`` (ingress endpoint) .. ``len(chain)``
    (egress endpoint).
    """
    chain = placement.chain
    if index < 0:
        return placement.ingress
    if index >= len(chain):
        return placement.egress
    return placement.device_of(chain[index].name)


def border_sets(placement: Placement) -> BorderSets:
    """Compute ``B_L`` and ``B_R`` for the placement (paper Step 1)."""
    chain = placement.chain
    left: Set[str] = set()
    right: Set[str] = set()
    for position, nf in enumerate(chain):
        if placement.device_of(nf.name) is not DeviceKind.SMARTNIC:
            continue
        if _neighbour_device(placement, position - 1) is DeviceKind.CPU:
            left.add(nf.name)
        if _neighbour_device(placement, position + 1) is DeviceKind.CPU:
            right.add(nf.name)
    sets = BorderSets(left=frozenset(left), right=frozenset(right))
    _check_invariant(placement, sets)
    return sets


def _check_invariant(placement: Placement, sets: BorderSets) -> None:
    """Every border NF must be movable to the CPU without adding crossings."""
    for name in sorted(sets.all):
        nf = placement.chain.get(name)
        if not nf.cpu_capable:
            continue  # not a migration candidate, but still a border
        if placement.crossing_delta(name, DeviceKind.CPU) > 0:
            raise SimulationError(
                f"border invariant violated: moving {name!r} to CPU would "
                "add PCIe crossings")
