"""Placement of a service chain's NFs onto the SmartNIC and the CPU.

A placement decides, for every NF in a chain, whether it runs on the
SmartNIC or on the host CPU.  Because traffic enters and leaves the
server through the NIC, every maximal run of CPU-resident NFs implies
two PCIe crossings (NIC -> CPU and back).  The crossing count is the
quantity PAM protects: the paper's whole argument is that migrating a
*border* NF never increases it, while migrating a mid-segment NF (the
naive policy) adds two crossings.

:class:`Placement` is immutable; :meth:`Placement.moved` returns the
placement after a migration, which is how the selection algorithms
explore candidate plans without mutating live state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import PlacementError
from .chain import ServiceChain
from .nf import DeviceKind, NFProfile


def check_unique_names(placements: Sequence["Placement"]) -> None:
    """Reject co-located chains that share an NF name.

    NF names key hosting, stations and migration actions on a server, so
    every NF across its chains needs its own name.
    """
    owner: Dict[str, int] = {}
    for index, placement in enumerate(placements):
        for nf in placement.chain:
            if nf.name in owner:
                raise PlacementError(
                    f"NF name {nf.name!r} appears in chains "
                    f"{owner[nf.name]} and {index}; co-located chains "
                    "need globally unique NF names (use renamed())")
            owner[nf.name] = index


class Segment(Tuple[str, ...]):
    """A maximal run of consecutive same-device NFs (names, in order)."""

    __slots__ = ()


class Placement:
    """Immutable NF -> device assignment for one service chain.

    ``ingress`` / ``egress`` name the device at which traffic enters and
    leaves the chain.  The default (SmartNIC on both ends) models a
    bump-in-the-wire chain.  The paper's Figure 1 chain terminates on
    the host side (its *right border* NF's "downstream" is the CPU), so
    the canonical scenario uses ``egress=DeviceKind.CPU`` — traffic is
    consumed by a host endpoint after the last NF.
    """

    def __init__(self, chain: ServiceChain,
                 assignment: Mapping[str, DeviceKind],
                 ingress: DeviceKind = DeviceKind.SMARTNIC,
                 egress: DeviceKind = DeviceKind.SMARTNIC) -> None:
        self.chain = chain
        self.ingress = ingress
        self.egress = egress
        missing = [nf.name for nf in chain if nf.name not in assignment]
        if missing:
            raise PlacementError(
                f"placement omits NFs: {', '.join(missing)}")
        extra = [name for name in assignment if name not in chain]
        if extra:
            raise PlacementError(
                f"placement names NFs outside the chain: {', '.join(extra)}")
        for nf in chain:
            device = assignment[nf.name]
            if not nf.can_run_on(device):
                raise PlacementError(
                    f"NF {nf.name!r} cannot run on {device.value}")
        self._assignment: Dict[str, DeviceKind] = {
            nf.name: assignment[nf.name] for nf in chain}

    # -- constructors ----------------------------------------------------

    @classmethod
    def all_on(cls, chain: ServiceChain, device: DeviceKind,
               ingress: DeviceKind = DeviceKind.SMARTNIC,
               egress: DeviceKind = DeviceKind.SMARTNIC) -> "Placement":
        """Place every NF on one device."""
        return cls(chain, {nf.name: device for nf in chain},
                   ingress=ingress, egress=egress)

    @classmethod
    def from_nic_set(cls, chain: ServiceChain,
                     on_nic: Iterable[str],
                     ingress: DeviceKind = DeviceKind.SMARTNIC,
                     egress: DeviceKind = DeviceKind.SMARTNIC) -> "Placement":
        """Place the named NFs on the SmartNIC and the rest on the CPU."""
        nic = set(on_nic)
        return cls(chain, {
            nf.name: DeviceKind.SMARTNIC if nf.name in nic else DeviceKind.CPU
            for nf in chain}, ingress=ingress, egress=egress)

    # -- basic lookups ---------------------------------------------------

    def device_of(self, name: str) -> DeviceKind:
        """The device hosting NF ``name``."""
        self.chain.get(name)  # uniform unknown-name error
        return self._assignment[name]

    def on_device(self, device: DeviceKind) -> List[NFProfile]:
        """NFs hosted on ``device``, in chain order."""
        return [nf for nf in self.chain if self._assignment[nf.name] is device]

    def nic_nfs(self) -> List[NFProfile]:
        """NFs on the SmartNIC, in chain order."""
        return self.on_device(DeviceKind.SMARTNIC)

    def cpu_nfs(self) -> List[NFProfile]:
        """NFs on the CPU, in chain order."""
        return self.on_device(DeviceKind.CPU)

    def as_dict(self) -> Dict[str, DeviceKind]:
        """A copy of the raw assignment."""
        return dict(self._assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (self.chain == other.chain
                and self._assignment == other._assignment
                and self.ingress is other.ingress
                and self.egress is other.egress)

    def __hash__(self) -> int:
        return hash((self.chain, self.ingress, self.egress, tuple(sorted(
            (k, v.value) for k, v in self._assignment.items()))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        marks = ", ".join(
            f"{nf.name}@{'S' if self._assignment[nf.name] is DeviceKind.SMARTNIC else 'C'}"
            for nf in self.chain)
        return f"Placement({marks})"

    # -- device walk and crossings ------------------------------------------

    def device_path(self) -> List[DeviceKind]:
        """The device each packet visits, including the chain endpoints.

        The walk is ``[ingress] + [device(nf) ...] + [egress]``: a
        bump-in-the-wire chain starts and ends at the SmartNIC (the NIC
        *is* the port); a host-terminated chain (the paper's Figure 1)
        ends at the CPU.
        """
        inner = [self._assignment[nf.name] for nf in self.chain]
        return [self.ingress] + inner + [self.egress]

    def pcie_crossings(self) -> int:
        """Number of PCIe transfers a packet makes end to end.

        Each adjacent pair of hops on different devices is one crossing.
        This is the latency-critical quantity of the paper: the naive
        migration in Figure 1(b) raises it by two, PAM keeps it constant.
        """
        path = self.device_path()
        return sum(1 for a, b in zip(path, path[1:]) if a is not b)

    def segments(self, device: Optional[DeviceKind] = None) -> List[Segment]:
        """Maximal same-device runs of NF names, optionally filtered.

        ``segments(DeviceKind.CPU)`` returns the CPU "islands" whose
        entry/exit points define the border NFs.
        """
        segments: List[Segment] = []
        current: List[str] = []
        current_device: Optional[DeviceKind] = None
        for nf in self.chain:
            dev = self._assignment[nf.name]
            if dev is current_device:
                current.append(nf.name)
            else:
                if current:
                    segments.append(Segment(current))
                current = [nf.name]
                current_device = dev
        if current:
            segments.append(Segment(current))
        if device is None:
            return segments
        return [seg for seg in segments
                if self._assignment[seg[0]] is device]

    # -- migration -----------------------------------------------------------

    def moved(self, name: str, to: DeviceKind) -> "Placement":
        """The placement after moving NF ``name`` to device ``to``.

        Raises :class:`PlacementError` when the NF is already there or
        cannot run on the target, so selection algorithms surface bad
        plans instead of silently proposing no-ops.
        """
        nf = self.chain.get(name)
        if self._assignment[name] is to:
            raise PlacementError(f"NF {name!r} is already on {to.value}")
        if not nf.can_run_on(to):
            raise PlacementError(f"NF {name!r} cannot run on {to.value}")
        assignment = dict(self._assignment)
        assignment[name] = to
        return Placement(self.chain, assignment,
                         ingress=self.ingress, egress=self.egress)

    def crossing_delta(self, name: str, to: DeviceKind) -> int:
        """Change in PCIe crossing count if ``name`` moved to ``to``.

        The paper's key observation in quantitative form: this is ``0``
        (or negative) exactly for border NFs, and ``+2`` for an NF
        strictly inside a same-device segment.
        """
        return self.moved(name, to).pcie_crossings() - self.pcie_crossings()
