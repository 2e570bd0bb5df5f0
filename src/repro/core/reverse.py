"""Pull-back (reverse PAM): re-offload NFs to the SmartNIC after the
overload subsides.

PAM pushes border vNFs to the CPU during a hot spot; once traffic drops
back, the NIC's fast path is sitting idle while NFs burn CPU cores.
The reverse selection mirrors PAM exactly:

* candidates are CPU-resident NFs whose move back to the NIC adds no
  PCIe crossings (the mirror-image border condition),
* the candidate with the **largest** theta^S returns first (it consumes
  the least NIC utilisation per bit, so re-offloading it is cheapest),
* the NIC must stay under a configurable target utilisation with the
  NF added (a guard band so the pull-back does not immediately
  re-trigger PAM — anti-flap by construction).

The loop keeps pulling until no candidate fits under the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..chain.nf import DeviceKind
from ..chain.placement import Placement
from ..errors import ConfigurationError
from ..resources.model import LoadModel, ThroughputSpec
from .pam import MAX_MIGRATIONS
from .plan import MigrationAction, MigrationPlan

POLICY_NAME = "pam-pullback"


@dataclass(frozen=True)
class PullbackConfig:
    """Tunables for the reverse migration."""

    #: Pull back only while NIC utilisation stays under this target
    #: *after* the move — the guard band against ping-ponging with PAM.
    nic_target: float = 0.8
    #: Do not bother pulling anything while the NIC is already above
    #: this (the chain is busy; leave it alone).
    trigger_below: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.nic_target <= 1.0):
            raise ConfigurationError("nic_target must be in (0, 1]")
        if not (0.0 <= self.trigger_below <= self.nic_target):
            raise ConfigurationError(
                "trigger_below must be in [0, nic_target]")


def _pullback_candidates(placement: Placement,
                         eligible: Optional[frozenset] = None) -> List[str]:
    """CPU NFs whose return to the NIC adds no crossings, best first.

    ``eligible`` restricts candidates to an explicit set — the
    controller passes the NFs it previously pushed aside, so pull-back
    *restores* the operator's baseline placement rather than freely
    re-optimising it (an NF homed on the CPU by choice stays there).
    """
    names = []
    for nf in placement.cpu_nfs():
        if eligible is not None and nf.name not in eligible:
            continue
        if not nf.nic_capable:
            continue
        if placement.crossing_delta(nf.name, DeviceKind.SMARTNIC) <= 0:
            names.append(nf.name)
    # Largest theta^S first: cheapest NIC residents return first.
    names.sort(key=lambda name: (-placement.chain.get(name)
                                 .nic_capacity_bps,
                                 placement.chain.position(name)))
    return names


def select_pullback(placement: Placement, throughput: ThroughputSpec,
                    config: PullbackConfig = PullbackConfig(),
                    eligible: Optional[Iterable[str]] = None
                    ) -> MigrationPlan:
    """Choose which CPU-resident NFs to re-offload to the SmartNIC.

    ``eligible`` (optional) limits the pull to specific NFs — usually
    the ones a forward policy previously pushed aside.
    """
    eligible_set = frozenset(eligible) if eligible is not None else None
    load = LoadModel(placement, throughput)
    if load.nic_load().utilisation >= config.trigger_below:
        return MigrationPlan.empty(
            placement, POLICY_NAME,
            notes=("nic too busy for pull-back",))

    actions: List[MigrationAction] = []
    current = placement
    while len(actions) < MAX_MIGRATIONS:
        moved_any = False
        for name in _pullback_candidates(current, eligible_set):
            nf = current.chain.get(name)
            nic_after = (load.nic_load().utilisation
                         + nf.utilisation_share(DeviceKind.SMARTNIC,
                                                load.throughput[name]))
            if nic_after >= config.nic_target:
                continue
            actions.append(MigrationAction(
                nf_name=name, source=DeviceKind.CPU,
                target=DeviceKind.SMARTNIC,
                crossing_delta=current.crossing_delta(
                    name, DeviceKind.SMARTNIC)))
            current = current.moved(name, DeviceKind.SMARTNIC)
            load = LoadModel(current, throughput)
            moved_any = True
            break
        if not moved_any:
            break

    plan = MigrationPlan(
        actions=tuple(actions), before=placement, after=current,
        alleviates=True, policy=POLICY_NAME,
        notes=(f"pulled {len(actions)} NFs back to the NIC",))
    plan.validate()
    return plan
