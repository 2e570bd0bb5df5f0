"""Evacuation planning for permanent device failure.

When a device dies, every NF it hosted must be re-hosted on the
survivor — the one placement question PAM never asks, answered with the
same feasibility machinery: the survivor's post-evacuation utilisation
is the paper's ``sum(theta_cur / theta_i)`` over everything it would
then host, and the planner reports whether that sum stays below 1 (if
not, the degradation ladder sheds the difference; evacuating an
overloaded survivor still beats leaving NFs on a corpse).

The plan is an ordinary :class:`~repro.core.plan.MigrationPlan`
(policy ``"evacuation"``), executed through the fault-tolerant
:class:`~repro.migration.executor.MigrationExecutor` — retries,
rollback and per-action timeouts all apply to recovery traffic exactly
as to push-aside traffic.

Standby pre-provisioning: when the operator grants a warm-replica byte
budget, :class:`StandbyPool` picks the stateful NFs with the most state
(the slowest to move cold) and :class:`StandbyAwareCostModel` charges
their evacuation only a stateless re-steer — state is already resident
on the survivor, which is Carpio & Jukan's replication-plus-migration
point in cost-model form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..chain.nf import DeviceKind, NFProfile
from ..chain.placement import Placement
from ..core.plan import MigrationAction, MigrationPlan
from ..devices.pcie import PCIeLink
from ..errors import ConfigurationError
from ..migration.cost import MigrationCost, MigrationCostModel
from ..resources.model import LoadModel


@dataclass(frozen=True)
class RecoveryConfig:
    """Recovery-loop knobs."""

    #: Full evacuation-plan attempts per failed device before the
    #: controller abandons the NFs it could not move.
    max_attempts_per_device: int = 3
    #: Warm-replica byte budget for standby pre-provisioning (0 = none).
    standby_budget_bytes: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts_per_device < 1:
            raise ConfigurationError("need at least one recovery attempt")
        if self.standby_budget_bytes < 0:
            raise ConfigurationError("standby budget must be >= 0")


@dataclass(frozen=True)
class EvacuationPlanning:
    """What :func:`plan_evacuation` decided."""

    plan: MigrationPlan
    #: NFs that cannot run on the survivor — they stay down until the
    #: device is physically replaced (outside this model's scope).
    unrecoverable: Tuple[str, ...]
    #: Uniform chain throughput the survivor sustains post-evacuation —
    #: the capacity the degradation ladder must respect while the
    #: failure lasts.
    survivor_capacity_bps: float


def plan_evacuation(placement: Placement, offered_bps: float,
                    failed_device: DeviceKind) -> EvacuationPlanning:
    """Evacuate every NF from ``failed_device`` onto the survivor.

    Actions are emitted in chain order with crossing deltas computed
    against the incrementally-updated placement, so the plan passes
    :meth:`~repro.core.plan.MigrationPlan.validate` like any
    policy-produced plan.
    """
    survivor = failed_device.other()
    actions: List[MigrationAction] = []
    unrecoverable: List[str] = []
    current = placement
    for nf in placement.on_device(failed_device):
        if not nf.can_run_on(survivor):
            unrecoverable.append(nf.name)
            continue
        actions.append(MigrationAction(
            nf_name=nf.name, source=failed_device, target=survivor,
            crossing_delta=current.crossing_delta(nf.name, survivor)))
        current = current.moved(nf.name, survivor)
    model = LoadModel(current, offered_bps)
    capacity = model.max_sustainable_throughput(survivor)
    feasible = model.device_load(survivor).utilisation < 1.0
    notes = [f"evacuating {failed_device.value} -> {survivor.value}"]
    if unrecoverable:
        notes.append("unrecoverable: " + ", ".join(unrecoverable))
    if not feasible:
        notes.append("survivor overloaded at current offered load; "
                     "the degradation ladder must shed the excess")
    plan = MigrationPlan(
        actions=tuple(actions), befores=(placement,), afters=(current,),
        alleviates=feasible, policy="evacuation", notes=tuple(notes))
    plan.validate()
    return EvacuationPlanning(
        plan=plan, unrecoverable=tuple(unrecoverable),
        survivor_capacity_bps=capacity)


def reachable_capacity_bps(placement: Placement) -> float:
    """Best uniform throughput PAM can reach from here in one move.

    The degradation ladder must not shed traffic that a migration could
    save — PAM's migrations are the first rung.  But the planner is the
    paper's planner: it moves *border* NFs (crossing delta <= 0), one
    at a time.  A theoretical optimum over arbitrary NF subsets would
    overstate what the control plane can actually navigate to and leave
    queues growing while the ladder waits for a placement that never
    comes.  So the reference is the capacity of the current placement
    or of any single border move away from it — recomputed every pulse,
    which makes it a rolling horizon: each migration PAM lands advances
    what the ladder considers achievable.
    """
    best = LoadModel(placement, 0.0).chain_capacity()
    for nf in placement.chain:
        target = placement.device_of(nf.name).other()
        if not nf.can_run_on(target):
            continue
        if placement.crossing_delta(nf.name, target) > 0:
            continue  # mid-segment move: the paper's planner never does it
        moved = LoadModel(placement.moved(nf.name, target), 0.0)
        best = max(best, moved.chain_capacity())
    return best


@dataclass
class RecoveryOutcome:
    """The full arc of one device-failure recovery."""

    device: DeviceKind
    #: When the health tracker declared the device failed.
    detected_s: float
    #: When the first evacuation plan started executing.
    started_s: Optional[float] = None
    #: When the recovery reached a terminal status.
    completed_s: Optional[float] = None
    #: ``completed`` (every NF re-hosted) | ``degraded`` (some NFs
    #: unrecoverable, the rest re-hosted) | ``abandoned`` (evacuation
    #: attempts exhausted).
    status: Optional[str] = None
    evacuated: List[str] = field(default_factory=list)
    unrecoverable: List[str] = field(default_factory=list)
    #: Full-plan attempts consumed (each may retry per-action inside).
    attempts: int = 0

    @property
    def terminal(self) -> bool:
        """Whether the recovery reached a terminal status."""
        return self.status is not None

    @property
    def time_to_recover_s(self) -> Optional[float]:
        """Detection-to-terminal latency (the bench's headline number)."""
        if self.completed_s is None:
            return None
        return self.completed_s - self.detected_s


#: :meth:`StandbyPool.acquire` resolutions, in degradation order.
ACQUIRE_REPLICA = "replicate"
ACQUIRE_MIGRATE = "migrate"
ACQUIRE_SHED = "shed"


class StandbyPool:
    """Warm replicas pre-provisioned on the survivor, within a budget.

    By default the pool chooses greedily by state size: the NFs whose
    cold migration would DMA the most bytes gain the most from having
    that state already resident.  Deterministic (ties broken by chain
    order).  A reliability policy can instead hand the pool an explicit
    ``prewarmed`` preference order; the pool admits those names under
    the same budget accounting (skipping names the survivor cannot host
    or the budget cannot fit) so a policy can never overcommit the
    replica bytes the operator granted.
    """

    def __init__(self, placement: Placement, protected: DeviceKind,
                 budget_bytes: int,
                 prewarmed: Optional[Sequence[str]] = None) -> None:
        if budget_bytes < 0:
            raise ConfigurationError("standby budget must be >= 0")
        self.budget_bytes = budget_bytes
        survivor = protected.other()
        hosted = {nf.name: nf for nf in placement.on_device(protected)}
        self._survivor_capable: FrozenSet[str] = frozenset(
            name for name, nf in sorted(hosted.items())
            if nf.can_run_on(survivor))
        if prewarmed is None:
            candidates = [nf for nf in placement.on_device(protected)
                          if nf.stateful and nf.can_run_on(survivor)]
            chain_order = {nf.name: i
                           for i, nf in enumerate(placement.chain)}
            candidates.sort(
                key=lambda nf: (-nf.state_bytes, chain_order[nf.name]))
        else:
            # Policy-ordered admission: keep the caller's order, drop
            # names that are not evacuation candidates (unknown, or
            # unable to run on the survivor) — they degrade to a
            # migrate/shed decision in acquire(), never an error.
            preference_order = tuple(prewarmed)
            candidates = [hosted[name] for name in preference_order
                          if name in self._survivor_capable]
        chosen: List[str] = []
        spent = 0
        for nf in candidates:
            if spent + nf.state_bytes <= budget_bytes:
                chosen.append(nf.name)
                spent += nf.state_bytes
        self.prewarmed: FrozenSet[str] = frozenset(chosen)
        self.spent_bytes = spent
        #: acquire() resolutions by NF name (accounting, JSON-clean).
        self.acquisitions: Dict[str, str] = {}

    def acquire(self, name: str) -> str:
        """Resolve one replica request, degrading when exhausted.

        Returns :data:`ACQUIRE_REPLICA` when ``name`` holds a warm
        replica, :data:`ACQUIRE_MIGRATE` when it does not but the
        survivor can host it cold, and :data:`ACQUIRE_SHED` when the NF
        cannot run on the survivor at all (its traffic is what the
        degradation ladder must shed).  Total: every name resolves to
        one of the three — an exhausted pool is a planning outcome, not
        a ``KeyError``.
        """
        if name in self.prewarmed:
            resolution = ACQUIRE_REPLICA
        elif name in self._survivor_capable:
            resolution = ACQUIRE_MIGRATE
        else:
            resolution = ACQUIRE_SHED
        self.acquisitions[name] = resolution
        return resolution


@dataclass(frozen=True)
class StandbyAwareCostModel(MigrationCostModel):
    """Cost model that charges pre-warmed NFs a stateless re-steer."""

    prewarmed: FrozenSet[str] = frozenset()

    def estimate(self, nf: NFProfile, pcie: PCIeLink,
                 active_flows: int = 0,
                 buffered_packets: int = 0) -> MigrationCost:
        """Like the base estimate, but warm replicas move no state."""
        if nf.name in self.prewarmed:
            nf = replace(nf, stateful=False, state_bytes=0)
            active_flows = 0
        return super().estimate(nf, pcie, active_flows=active_flows,
                                buffered_packets=buffered_packets)
