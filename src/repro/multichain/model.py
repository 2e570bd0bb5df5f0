"""Aggregate load model for several chains sharing one server.

Real NFV servers consolidate many service chains onto the same SmartNIC
and CPU (CoCo [5], which the paper builds its resource model on).  The
linear model composes: device utilisation is the sum of every chain's
per-NF shares, so overload, Eq. 2 and Eq. 3 all generalise by summing
across chains.  :class:`MultiChainLoadModel` evaluates those sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..chain.nf import DeviceKind
from ..chain.placement import Placement, check_unique_names
from ..errors import ConfigurationError
from ..resources.model import LoadModel, ThroughputSpec, shared_utilisation


@dataclass(frozen=True)
class ChainLoad:
    """One chain's placement and current throughput."""

    placement: Placement
    throughput: ThroughputSpec

    def model(self) -> LoadModel:
        """The single-chain load model."""
        return LoadModel(self.placement, self.throughput)


class MultiChainLoadModel:
    """Summed utilisation across a set of co-located chains."""

    def __init__(self, chains: Sequence[ChainLoad]) -> None:
        if not chains:
            raise ConfigurationError("need at least one chain")
        check_unique_names([chain_load.placement for chain_load in chains])
        self.chains: Tuple[ChainLoad, ...] = tuple(chains)
        self._models = [c.model() for c in chains]

    # -- aggregates ---------------------------------------------------------

    def device_utilisation(self, device: DeviceKind) -> float:
        """Summed utilisation of ``device`` over every chain."""
        return shared_utilisation(self._models, device)

    def nic_utilisation(self) -> float:
        """Aggregate SmartNIC utilisation."""
        return self.device_utilisation(DeviceKind.SMARTNIC)

    def cpu_utilisation(self) -> float:
        """Aggregate CPU utilisation."""
        return self.device_utilisation(DeviceKind.CPU)

    def nic_overloaded(self) -> bool:
        """Whether the shared SmartNIC is at or past capacity (Eq. 3
        wants its utilisation strictly below 1)."""
        return self.nic_utilisation() >= 1.0

    def shared_capacity(self, device: DeviceKind) -> float:
        """Largest uniform *scaling* of all chains the device sustains.

        If every chain's throughput were multiplied by ``k``, the device
        saturates at ``k = 1 / utilisation``; expressed as the aggregate
        utilisation headroom factor.
        """
        utilisation = self.device_utilisation(device)
        return float("inf") if utilisation == 0 else 1.0 / utilisation
