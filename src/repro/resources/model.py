"""Linear resource-utilisation model (paper S2, after CoCo [5]).

The paper assumes each vNF's resource consumption on either device grows
linearly with its throughput: an NF carrying theta_cur on a device where
its capacity is theta_i^D consumes a fraction ``theta_cur / theta_i^D``
of that device.  A device is overloaded when the sum of its hosted NFs'
fractions exceeds 1.

:class:`LoadModel` evaluates these sums for a (placement, per-NF
throughput) pair and answers the three questions PAM asks:

* What is each device's utilisation now?  (overload detection)
* Would moving NF b0 to the CPU overload the CPU?  (Eq. 2)
* With b0 gone, is the SmartNIC's remaining utilisation below 1?  (Eq. 3)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

from ..chain.nf import DeviceKind, NFProfile
from ..chain.placement import Placement
from ..errors import CapacityError


ThroughputSpec = Union[float, Mapping[str, float]]


def filtered_throughput(chain, offered_bps: float) -> Dict[str, float]:
    """Per-NF throughput when NFs filter traffic (pass_rate < 1).

    The first NF sees the full offered load; each later NF sees the
    offered load thinned by the product of upstream pass rates.  Feed
    the result to :class:`LoadModel` (and the selection algorithms) so
    Eq. 2/Eq. 3 account for filtering.
    """
    if offered_bps < 0:
        raise CapacityError("offered load must be >= 0")
    throughput: Dict[str, float] = {}
    carried = float(offered_bps)
    for nf in chain:
        throughput[nf.name] = carried
        carried *= nf.pass_rate
    return throughput


def shared_utilisation(loads: Sequence["LoadModel"],
                       device: DeviceKind) -> float:
    """Summed utilisation of the shared ``device`` over co-located chains.

    The linear model composes across chains: every chain's per-NF
    shares add onto the same device.  One chain gives its own
    utilisation exactly.
    """
    return sum(load.device_load(device).utilisation for load in loads)


def shared_capacity(placements: Iterable[Placement],
                    device: DeviceKind) -> float:
    """Largest uniform throughput ``device`` carries for every chain.

    Solves ``sum theta/theta_i^D = 1`` for theta over the NFs the
    placements put on ``device``, summed in chain order.  Infinite when
    the device hosts nothing.
    """
    inv_sum = sum(1.0 / nf.capacity_on(device)
                  for placement in placements
                  for nf in placement.on_device(device))
    return float("inf") if inv_sum == 0 else 1.0 / inv_sum


def _normalise_throughput(placement: Placement,
                          throughput: ThroughputSpec) -> Dict[str, float]:
    """Expand a scalar chain throughput into a per-NF map.

    The paper uses a single theta_cur for the whole chain (every packet
    traverses every NF).  A scalar is interpreted as the load *offered
    at the chain head* and thinned through filtering NFs
    (:func:`filtered_throughput`); with all pass rates at 1.0 this
    reduces to the paper's uniform theta_cur exactly.  An explicit
    mapping overrides the thinning.
    """
    if isinstance(throughput, Mapping):
        per_nf = dict(throughput)
        missing = [nf.name for nf in placement.chain if nf.name not in per_nf]
        if missing:
            raise CapacityError(
                f"throughput map omits NFs: {', '.join(missing)}")
        bad = {name: v for name, v in per_nf.items() if v < 0}
        if bad:
            raise CapacityError(f"negative throughput for: {sorted(bad)}")
        return per_nf
    return filtered_throughput(placement.chain, float(throughput))


@dataclass(frozen=True)
class DeviceLoad:
    """Snapshot of one device's aggregate utilisation."""

    device: DeviceKind
    utilisation: float
    #: Per-NF utilisation shares that sum (within float error) to ``utilisation``.
    shares: Mapping[str, float]

    @property
    def overloaded(self) -> bool:
        """Whether the device exceeds its capacity (utilisation > 1)."""
        return self.utilisation > 1.0

    @property
    def headroom(self) -> float:
        """Spare fraction of the device (may be negative when overloaded)."""
        return 1.0 - self.utilisation


class LoadModel:
    """Evaluates the linear utilisation model for a placement under load."""

    def __init__(self, placement: Placement, throughput: ThroughputSpec) -> None:
        self.placement = placement
        self.throughput = _normalise_throughput(placement, throughput)

    # -- aggregate views --------------------------------------------------

    def device_load(self, device: DeviceKind) -> DeviceLoad:
        """Utilisation snapshot of ``device`` under the current throughput."""
        shares = {
            nf.name: nf.utilisation_share(device, self.throughput[nf.name])
            for nf in self.placement.on_device(device)}
        return DeviceLoad(device=device,
                          utilisation=sum(shares.values()),
                          shares=shares)

    def nic_load(self) -> DeviceLoad:
        """SmartNIC utilisation snapshot."""
        return self.device_load(DeviceKind.SMARTNIC)

    def cpu_load(self) -> DeviceLoad:
        """CPU utilisation snapshot."""
        return self.device_load(DeviceKind.CPU)

    def overloaded_devices(self):
        """The devices currently past capacity, in a stable order."""
        return [load.device
                for load in (self.nic_load(), self.cpu_load())
                if load.overloaded]

    # -- what-if evaluations (the paper's constraint checks) ----------------

    def cpu_load_with(self, nf: NFProfile) -> float:
        """LHS of Eq. 2: CPU utilisation if ``nf`` also ran there.

        ``sum_{i in NFs on C} theta_cur/theta_i^C + theta_cur/theta_nf^C``.
        """
        extra = nf.utilisation_share(DeviceKind.CPU, self.throughput[nf.name])
        return self.cpu_load().utilisation + extra

    def nic_load_without(self, nf: NFProfile) -> float:
        """LHS of Eq. 3: SmartNIC utilisation with ``nf`` removed.

        ``sum_{i in NFs on S, i != b0} theta_cur/theta_i^S``.
        """
        load = self.nic_load()
        return load.utilisation - load.shares.get(nf.name, 0.0)

    def after_move(self, name: str, to: DeviceKind) -> "LoadModel":
        """The load model after migrating ``name`` to ``to``.

        Selection loops use this to walk hypothetical placements without
        touching the live one.
        """
        return LoadModel(self.placement.moved(name, to), self.throughput)

    # -- capacity-style summaries -----------------------------------------

    def max_sustainable_throughput(self, device: DeviceKind) -> float:
        """Largest uniform chain throughput ``device`` can carry.

        Solves ``sum theta/theta_i^D = 1`` for theta over the NFs placed
        on ``device``.  Infinite when the device hosts nothing.
        """
        return shared_capacity((self.placement,), device)

    def chain_capacity(self) -> float:
        """Largest uniform throughput the whole placement sustains.

        The minimum of both devices' sustainable throughputs — the knee
        at which one device saturates and queueing delay diverges.
        """
        return min(self.max_sustainable_throughput(DeviceKind.SMARTNIC),
                   self.max_sustainable_throughput(DeviceKind.CPU))
