"""Scale-out fallback (OpenNF [1]) for joint NIC+CPU overload.

PAM handles the common case — the SmartNIC is hot, the CPU has room.
When *both* devices are overloaded the paper defers to OpenNF: "the
network operator must start another instance".  This module plans that
fallback analytically:

* how many replicas of which NF are needed so every device is back
  under capacity, given that replicas run on the CPU and traffic is
  split across instances by flow hash, and
* what the flow split looks like over a concrete
  :class:`~repro.traffic.flows.FlowTable` (hash splits of Zipf traffic
  are uneven, so the plan reports the worst-case instance share).

The planner works at the utilisation-model level (no replicated
data-plane simulation): each replica of NF *i* carrying a fraction *f*
of the chain throughput consumes ``f * theta_cur / theta_i^C`` of the
CPU, and replica count is bounded by spare cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..chain.nf import DeviceKind, NFProfile
from ..chain.placement import Placement
from ..devices.cpu import CPU
from ..errors import ConfigurationError, PlacementError, ScaleOutRequired
from ..resources.model import LoadModel, ThroughputSpec
from ..traffic.flows import FlowTable

POLICY_NAME = "scaleout"


@dataclass(frozen=True)
class ScaleOutPlan:
    """One NF replicated ``replicas``-fold with a flow split."""

    nf_name: str
    #: Total instances after scale-out (original + new replicas).
    instances: int
    #: Fraction of chain throughput per instance under an even split.
    even_share: float
    #: Largest instance share under the concrete hash split (skew!).
    worst_share: float
    #: Predicted NIC / CPU utilisation after applying the plan.
    predicted_nic_utilisation: float
    predicted_cpu_utilisation: float

    @property
    def alleviates(self) -> bool:
        """Whether both devices end up under capacity."""
        return (self.predicted_nic_utilisation < 1.0
                and self.predicted_cpu_utilisation < 1.0)


def _bottleneck_on_nic(placement: Placement) -> NFProfile:
    nic_nfs = placement.nic_nfs()
    if not nic_nfs:
        raise ConfigurationError("no NFs on the SmartNIC to scale out")
    return min(nic_nfs, key=lambda nf: nf.nic_capacity_bps)


def plan_scaleout(placement: Placement, throughput: ThroughputSpec,
                  cpu: Optional[CPU] = None,
                  flow_table: Optional[FlowTable] = None,
                  max_instances: int = 8) -> ScaleOutPlan:
    """Replicate the NIC bottleneck NF onto the CPU until loads fit.

    The original instance stays on the NIC; each replica runs on the
    CPU and absorbs an even share of the NF's traffic.  Raises
    :class:`ScaleOutRequired` (re-raised with context) when even
    ``max_instances`` instances or the CPU's spare cores cannot absorb
    the load — at that point a second server is genuinely needed.
    """
    load = LoadModel(placement, throughput)
    bottleneck = _bottleneck_on_nic(placement)
    theta_cur = load.throughput[bottleneck.name]
    core_budget = cpu.replica_capacity() if cpu is not None else max_instances
    limit = min(max_instances, 1 + core_budget)

    for instances in range(2, limit + 1):
        share = 1.0 / instances
        # NIC keeps one instance at `share` of the NF's load.
        nic_util = (load.nic_load().utilisation
                    - bottleneck.utilisation_share(DeviceKind.SMARTNIC, theta_cur)
                    + bottleneck.utilisation_share(DeviceKind.SMARTNIC,
                                                   theta_cur * share))
        # CPU gains (instances - 1) replicas at `share` each.
        if not bottleneck.cpu_capable:
            break
        cpu_util = (load.cpu_load().utilisation
                    + (instances - 1) * bottleneck.utilisation_share(
                        DeviceKind.CPU, theta_cur * share))
        if nic_util < 1.0 and cpu_util < 1.0:
            worst = _worst_hash_share(flow_table, instances)
            return ScaleOutPlan(
                nf_name=bottleneck.name,
                instances=instances,
                even_share=share,
                worst_share=worst,
                predicted_nic_utilisation=nic_util,
                predicted_cpu_utilisation=cpu_util)

    raise ScaleOutRequired(
        f"scale-out of {bottleneck.name!r} cannot fit within "
        f"{limit} instances; another server is required",
        nic_utilisation=load.nic_load().utilisation,
        cpu_utilisation=load.cpu_load().utilisation)


def _worst_hash_share(flow_table: Optional[FlowTable],
                      instances: int) -> float:
    """Largest per-instance flow share under a concrete hash split."""
    if flow_table is None:
        return 1.0 / instances
    buckets = flow_table.split(instances)
    return max(len(b) for b in buckets) / len(flow_table)


class ScaleOutFallbackPolicy:
    """Try an inner policy first; plan scale-out when it gives up.

    The selection result is still a migration plan (possibly empty);
    scale-out plans are collected on :attr:`scaleout_plans` because they
    change instance counts, which is outside the migration executor's
    vocabulary.
    """

    name = POLICY_NAME

    def __init__(self, inner, cpu: Optional[CPU] = None,
                 flow_table: Optional[FlowTable] = None) -> None:
        self.inner = inner
        self.cpu = cpu
        self.flow_table = flow_table
        self.scaleout_plans: List[ScaleOutPlan] = []

    def select(self, loads: Tuple[LoadModel, ...]):
        """Inner policy first; plan scale-out when it gives up.

        Scale-out replicates one chain's NF, so it needs a single chain.
        """
        from ..core.plan import MigrationPlan  # local import avoids a cycle
        try:
            return self.inner.select(loads)
        except ScaleOutRequired:
            if len(loads) != 1:
                raise PlacementError(
                    f"scale-out plans one chain, not {len(loads)}")
            load = loads[0]
            plan = plan_scaleout(load.placement, load.throughput,
                                 cpu=self.cpu, flow_table=self.flow_table)
            self.scaleout_plans.append(plan)
            return MigrationPlan.empty(
                (load.placement,), POLICY_NAME, alleviates=plan.alleviates,
                notes=(f"scale-out: {plan.nf_name} x{plan.instances}",))
