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

The loop keeps pulling until no candidate fits under the target.  Like
the forward loop it runs over one load model per co-located chain: the
candidates of every chain compete, and both guard bands judge the
summed utilisation of the shared NIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..chain.nf import DeviceKind
from ..chain.placement import Placement
from ..errors import ConfigurationError
from ..resources.model import LoadModel, shared_utilisation
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


def _pullback_candidates(placements: Tuple[Placement, ...],
                         eligible: Optional[frozenset] = None
                         ) -> List[Tuple[int, str]]:
    """CPU NFs whose return to the NIC adds no crossings, best first.

    Candidates are ``(chain index, NF name)`` over every chain.
    ``eligible`` restricts them to an explicit set — the controller
    passes the NFs it previously pushed aside, so pull-back *restores*
    the operator's baseline placement rather than freely re-optimising
    it (an NF homed on the CPU by choice stays there).
    """
    keyed: List[Tuple[float, int, int, str]] = []
    for index, placement in enumerate(placements):
        for nf in placement.cpu_nfs():
            if eligible is not None and nf.name not in eligible:
                continue
            if not nf.nic_capable:
                continue
            if placement.crossing_delta(nf.name, DeviceKind.SMARTNIC) <= 0:
                # Largest theta^S first: cheapest NIC residents return
                # first; (chain index, chain position) breaks ties.
                keyed.append((-nf.nic_capacity_bps, index,
                              placement.chain.position(nf.name), nf.name))
    return [(index, name) for __, index, __, name in sorted(keyed)]


def select_pullback(loads: Tuple[LoadModel, ...],
                    config: PullbackConfig = PullbackConfig(),
                    eligible: Optional[Iterable[str]] = None
                    ) -> MigrationPlan:
    """Choose which CPU-resident NFs to re-offload to the SmartNIC.

    ``loads`` holds one load model per chain sharing the server (a
    single chain is a 1-tuple); the NIC guard bands judge their summed
    utilisation.  ``eligible`` (optional) limits the pull to specific
    NFs — usually the ones a forward policy previously pushed aside.
    """
    eligible_set = frozenset(eligible) if eligible is not None else None
    befores = tuple(load.placement for load in loads)
    if shared_utilisation(loads, DeviceKind.SMARTNIC) >= \
            config.trigger_below:
        return MigrationPlan.empty(
            befores, POLICY_NAME,
            notes=("nic too busy for pull-back",))

    actions: List[MigrationAction] = []
    while len(actions) < MAX_MIGRATIONS:
        nic = shared_utilisation(loads, DeviceKind.SMARTNIC)
        for index, name in _pullback_candidates(
                tuple(load.placement for load in loads), eligible_set):
            load = loads[index]
            nf = load.placement.chain.get(name)
            nic_after = nic + nf.utilisation_share(DeviceKind.SMARTNIC,
                                                   load.throughput[name])
            if nic_after >= config.nic_target:
                continue
            actions.append(MigrationAction(
                nf_name=name, source=DeviceKind.CPU,
                target=DeviceKind.SMARTNIC,
                crossing_delta=load.placement.crossing_delta(
                    name, DeviceKind.SMARTNIC)))
            loads = (loads[:index]
                     + (load.after_move(name, DeviceKind.SMARTNIC),)
                     + loads[index + 1:])
            break
        else:
            break

    plan = MigrationPlan(
        actions=tuple(actions), befores=befores,
        afters=tuple(load.placement for load in loads),
        alleviates=True, policy=POLICY_NAME,
        notes=(f"pulled {len(actions)} NFs back to the NIC",))
    plan.validate()
    return plan
