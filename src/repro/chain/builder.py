"""Fluent builder for chains and placements.

Example
-------
>>> from repro.chain import ChainBuilder, catalog
>>> chain, placement = (
...     ChainBuilder("fig1", profiles=catalog.FIGURE1_SCENARIO)
...     .cpu("load_balancer")
...     .nic("logger")
...     .nic("monitor")
...     .nic("firewall")
...     .build())
>>> placement.pcie_crossings()
2
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from .catalog import EXTENDED, get as get_profile
from .chain import ServiceChain
from .nf import DeviceKind, NFProfile
from .placement import Placement


class ChainBuilder:
    """Accumulates (NF, device) pairs and builds a validated chain+placement."""

    def __init__(self, name: str = "chain",
                 profiles: Mapping[str, NFProfile] = EXTENDED) -> None:
        self.name = name
        self._profiles = profiles
        self._nfs: List[NFProfile] = []
        self._devices: Dict[str, DeviceKind] = {}

    def add(self, nf, device: DeviceKind,
            rename: Optional[str] = None) -> "ChainBuilder":
        """Append an NF (catalog name or :class:`NFProfile`) on ``device``.

        ``rename`` gives the instance a distinct name, allowing the same
        catalog profile to appear twice in one chain.
        """
        profile = nf if isinstance(nf, NFProfile) else get_profile(nf, self._profiles)
        if rename:
            profile = profile.renamed(rename)
        if profile.name in self._devices:
            raise ConfigurationError(
                f"NF {profile.name!r} added twice; pass rename= for a second instance")
        self._nfs.append(profile)
        self._devices[profile.name] = device
        return self

    def nic(self, nf, rename: Optional[str] = None) -> "ChainBuilder":
        """Append an NF on the SmartNIC."""
        return self.add(nf, DeviceKind.SMARTNIC, rename)

    def cpu(self, nf, rename: Optional[str] = None) -> "ChainBuilder":
        """Append an NF on the CPU."""
        return self.add(nf, DeviceKind.CPU, rename)

    def build(self, ingress: DeviceKind = DeviceKind.SMARTNIC,
              egress: DeviceKind = DeviceKind.SMARTNIC
              ) -> Tuple[ServiceChain, Placement]:
        """Validate and return the (chain, placement) pair.

        ``ingress``/``egress`` set where traffic enters and leaves (see
        :class:`~repro.chain.placement.Placement`).
        """
        chain = ServiceChain(self._nfs, name=self.name)
        return chain, Placement(chain, self._devices,
                                ingress=ingress, egress=egress)
