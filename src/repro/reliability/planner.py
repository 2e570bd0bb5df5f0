"""Joint migrate/replicate/shed planning for one protected device.

PAM answers "which NF do I push aside *now*"; the reliability planner
answers the question Carpio & Jukan pose (PAPERS.md): before the
failure, which NFs on the protected device should hold a **warm
replica** on the survivor (paying sync bandwidth forever), which should
plan to **migrate cold** (paying downtime at failure time), and which
traffic must be **shed** (paying SLA damage) because the survivor can
never host its NF?

Scoring reuses the layers PRs 1-3 built rather than inventing new
physics:

* downtime of a cold move comes from
  :class:`~repro.migration.cost.MigrationCostModel` (pause + PCIe DMA +
  resume), of a warm move from
  :class:`~repro.resilience.recovery.StandbyAwareCostModel` (stateless
  re-steer);
* replica admission and byte accounting go through
  :class:`~repro.resilience.recovery.StandbyPool` — the planner can
  only spend budget the pool would actually grant, and exhaustion
  degrades to a migrate/shed decision via :meth:`StandbyPool.acquire`;
* survivor capacity comes from
  :func:`~repro.resilience.recovery.plan_evacuation`, and shed damage
  from the degradation ladder's :class:`PriorityClass` shares and
  damage weights.

Everything is deterministic: candidates are scored with pure floats,
ties break by chain order, and the emitted plan serialises to a
JSON-clean dict so reliability campaigns stay bit-exact replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..chain.nf import DeviceKind, NFProfile
from ..chain.placement import Placement
from ..devices.pcie import PCIeLink
from ..errors import ConfigurationError
from ..migration.cost import MigrationCostModel
from ..resilience.degradation import DEFAULT_PRIORITY_CLASSES, PriorityClass
from ..resilience.recovery import (ACQUIRE_MIGRATE, ACQUIRE_REPLICA,
                                   StandbyAwareCostModel, StandbyPool,
                                   plan_evacuation)

#: How often a warm replica's state image is refreshed on the survivor.
#: Sync bandwidth is charged on the NF's declared ``state_bytes`` —
#: the replica mirrors the state image whether or not migration would
#: pause/replay it — so replicating a large-state NF taxes the
#: survivor's capacity even when the replica buys no downtime.
DEFAULT_SYNC_REFRESH_HZ = 10.0


@dataclass(frozen=True)
class ReplicaCandidate:
    """One NF on the protected device, scored for replication."""

    name: str
    chain_index: int
    state_bytes: int
    stateful: bool
    survivor_capable: bool
    #: Downtime of a cold migration at failure time.
    cold_downtime_s: float
    #: Downtime with a warm replica resident (stateless re-steer).
    warm_downtime_s: float
    #: Steady-state sync bandwidth a replica would cost.
    sync_bps: float

    @property
    def benefit_s(self) -> float:
        """Downtime a warm replica saves at failure time."""
        return self.cold_downtime_s - self.warm_downtime_s

    @property
    def benefit_per_byte(self) -> float:
        """Downtime saved per replica byte spent (0 for free NFs)."""
        if self.state_bytes <= 0:
            return 0.0
        return self.benefit_s / self.state_bytes


@dataclass(frozen=True)
class ReliabilityAction:
    """The planner's verdict for one NF on the protected device."""

    nf_name: str
    #: ``replicate`` | ``migrate`` | ``shed`` (StandbyPool.acquire
    #: resolutions — the pool is the single source of truth).
    action: str
    #: Downtime this NF contributes at failure time under the plan.
    downtime_s: float
    #: Downtime it would contribute migrating cold (the counterfactual).
    cold_downtime_s: float
    #: Replica bytes reserved on the survivor (replicate only).
    budget_bytes: int
    #: Steady-state sync bandwidth (replicate only).
    sync_bps: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean form (journal payloads embed this verbatim)."""
        return {"nf": self.nf_name, "action": self.action,
                "downtime_s": self.downtime_s,
                "cold_downtime_s": self.cold_downtime_s,
                "budget_bytes": self.budget_bytes,
                "sync_bps": self.sync_bps}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReliabilityAction":
        """Inverse of :meth:`to_dict`."""
        return cls(nf_name=str(data["nf"]), action=str(data["action"]),
                   downtime_s=float(data["downtime_s"]),
                   cold_downtime_s=float(data["cold_downtime_s"]),
                   budget_bytes=int(data["budget_bytes"]),
                   sync_bps=float(data["sync_bps"]))


@dataclass(frozen=True)
class ReliabilityPlan:
    """One policy's joint migrate/replicate/shed decision, frozen.

    Every field after ``budget_bytes`` defaults to zero, so
    ``ReliabilityPlan(policy, "-", budget_bytes)`` is the empty plan a
    run that never planned reports.
    """

    policy: str
    protected: str
    budget_bytes: int
    actions: Tuple[ReliabilityAction, ...] = ()
    #: NFs the StandbyPool actually admitted (chain order).
    prewarmed: Tuple[str, ...] = ()
    #: Replica bytes the pool actually spent (<= budget_bytes).
    spent_bytes: int = 0
    #: Sum of per-NF downtime at failure time (serial evacuation).
    predicted_downtime_s: float = 0.0
    #: Total steady-state sync bandwidth of the replica set.
    sync_bps: float = 0.0
    #: Survivor capacity net of replica sync — what remains for
    #: traffic after the protected device dies (the Pareto x-axis).
    headroom_bps: float = 0.0
    #: Survivor capacity before the sync tax (plan_evacuation's view).
    survivor_capacity_bps: float = 0.0
    #: Weighted SLA damage of the shed the plan cannot avoid at
    #: ``offered_bps`` (0 when the survivor carries everything).
    shed_damage: float = 0.0
    #: Offered load the plan was scored against.
    offered_bps: float = 0.0
    notes: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean form for campaign payloads and the bench."""
        return {"policy": self.policy, "protected": self.protected,
                "budget_bytes": self.budget_bytes,
                "actions": [action.to_dict() for action in self.actions],
                "prewarmed": list(self.prewarmed),
                "spent_bytes": self.spent_bytes,
                "predicted_downtime_s": self.predicted_downtime_s,
                "sync_bps": self.sync_bps,
                "headroom_bps": self.headroom_bps,
                "survivor_capacity_bps": self.survivor_capacity_bps,
                "shed_damage": self.shed_damage,
                "offered_bps": self.offered_bps,
                "notes": list(self.notes)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReliabilityPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            policy=str(data["policy"]), protected=str(data["protected"]),
            budget_bytes=int(data["budget_bytes"]),
            actions=tuple(ReliabilityAction.from_dict(action)
                          for action in data["actions"]),
            prewarmed=tuple(str(name) for name in data["prewarmed"]),
            spent_bytes=int(data["spent_bytes"]),
            predicted_downtime_s=float(data["predicted_downtime_s"]),
            sync_bps=float(data["sync_bps"]),
            headroom_bps=float(data["headroom_bps"]),
            survivor_capacity_bps=float(data["survivor_capacity_bps"]),
            shed_damage=float(data["shed_damage"]),
            offered_bps=float(data["offered_bps"]),
            notes=tuple(str(note) for note in data["notes"]))


def assess_candidates(placement: Placement, protected: DeviceKind,
                      pcie: PCIeLink,
                      cost_model: Optional[MigrationCostModel] = None,
                      sync_refresh_hz: float = DEFAULT_SYNC_REFRESH_HZ
                      ) -> Tuple[ReplicaCandidate, ...]:
    """Score every NF on ``protected`` for the replicate-vs-migrate call.

    Emitted in chain order — the deterministic base order every policy
    starts from.
    """
    if sync_refresh_hz <= 0:
        raise ConfigurationError("sync refresh rate must be positive")
    model = cost_model or MigrationCostModel()
    survivor = protected.other()
    hosted = {nf.name for nf in placement.on_device(protected)}
    candidates: List[ReplicaCandidate] = []
    for index, nf in enumerate(placement.chain):
        if nf.name not in hosted:
            continue
        capable = nf.can_run_on(survivor)
        cold = model.estimate(nf, pcie).total_s if capable else 0.0
        warm = StandbyAwareCostModel(
            pause_overhead_s=model.pause_overhead_s,
            resume_overhead_s=model.resume_overhead_s,
            per_buffered_packet_s=model.per_buffered_packet_s,
            state_model=model.state_model,
            prewarmed=frozenset((nf.name,))
        ).estimate(nf, pcie).total_s if capable else 0.0
        candidates.append(ReplicaCandidate(
            name=nf.name, chain_index=index,
            state_bytes=nf.state_bytes, stateful=nf.stateful,
            survivor_capable=capable,
            cold_downtime_s=cold, warm_downtime_s=warm,
            sync_bps=8.0 * nf.state_bytes * sync_refresh_hz))
    return tuple(candidates)


def shed_damage_at(offered_bps: float, capacity_bps: float,
                   classes: Sequence[PriorityClass]) -> float:
    """Weighted SLA damage of the shed needed to fit ``capacity_bps``.

    The ladder sheds classes from the end of the tuple (lowest priority
    first); damage accumulates ``share * damage_weight`` per engaged
    class, scaled by how much of the class's share the deficit actually
    consumes.  0 when the capacity carries the full offered load.
    """
    if offered_bps <= 0 or capacity_bps >= offered_bps:
        return 0.0
    deficit_fraction = (offered_bps - max(capacity_bps, 0.0)) / offered_bps
    damage = 0.0
    for cls in reversed(tuple(classes)):
        if deficit_fraction <= 0:
            break
        if not cls.sheddable:
            continue
        engaged = min(cls.share, deficit_fraction)
        damage += engaged * cls.damage_weight
        deficit_fraction -= engaged
    return damage


def finalise_plan(policy: str, placement: Placement,
                  protected: DeviceKind, budget_bytes: int,
                  preference: Optional[Sequence[str]],
                  candidates: Sequence[ReplicaCandidate],
                  offered_bps: float,
                  classes: Sequence[PriorityClass] = DEFAULT_PRIORITY_CLASSES,
                  notes: Sequence[str] = ()) -> ReliabilityPlan:
    """Turn a policy's replica preference into the executable plan.

    Admission goes through :class:`StandbyPool` — the same budget
    accounting the controller installs at runtime — and every NF's
    final action comes from :meth:`StandbyPool.acquire`, so the plan
    can never promise a replica the pool would refuse.
    """
    pool = StandbyPool(placement, protected, budget_bytes,
                       prewarmed=preference)
    by_name = {candidate.name: candidate for candidate in candidates}
    actions: List[ReliabilityAction] = []
    downtime = 0.0
    sync = 0.0
    for candidate in candidates:
        resolution = pool.acquire(candidate.name)
        if resolution == ACQUIRE_REPLICA:
            nf_downtime = candidate.warm_downtime_s
            nf_sync = candidate.sync_bps
            nf_budget = candidate.state_bytes
        elif resolution == ACQUIRE_MIGRATE:
            nf_downtime = candidate.cold_downtime_s
            nf_sync = 0.0
            nf_budget = 0
        else:
            nf_downtime = 0.0
            nf_sync = 0.0
            nf_budget = 0
        downtime += nf_downtime
        sync += nf_sync
        actions.append(ReliabilityAction(
            nf_name=candidate.name, action=resolution,
            downtime_s=nf_downtime,
            cold_downtime_s=candidate.cold_downtime_s,
            budget_bytes=nf_budget, sync_bps=nf_sync))
    planning = plan_evacuation(placement, offered_bps, protected)
    capacity = planning.survivor_capacity_bps
    headroom = capacity - sync
    damage = shed_damage_at(offered_bps, headroom, classes)
    prewarmed = tuple(by_name[name].name
                      for name in sorted(pool.prewarmed,
                                         key=lambda n: by_name[n].chain_index))
    all_notes = list(notes)
    if pool.spent_bytes < budget_bytes and preference is not None:
        unspent = budget_bytes - pool.spent_bytes
        all_notes.append(f"{unspent} budget byte(s) left unspent")
    return ReliabilityPlan(
        policy=policy, protected=protected.value,
        budget_bytes=budget_bytes, actions=tuple(actions),
        prewarmed=prewarmed, spent_bytes=pool.spent_bytes,
        predicted_downtime_s=downtime, sync_bps=sync,
        headroom_bps=headroom, survivor_capacity_bps=capacity,
        shed_damage=damage, offered_bps=offered_bps,
        notes=tuple(all_notes))
