"""The PAM selection algorithm (paper S2, Steps 1-3) and the one
push-aside loop every forward policy shares.

Given the current placement and measured chain throughput, PAM picks
which SmartNIC vNFs to push aside onto the CPU so that the NIC's
overload is alleviated **without adding PCIe crossings**:

1. *Border identification* — compute ``B_L`` / ``B_R``
   (:func:`repro.core.border.border_sets`).
2. *Selection* — ``b0 = argmin_{b in B_L ∪ B_R} theta_b^S``: the border
   NF with the smallest NIC capacity frees the largest utilisation
   fraction per unit throughput.
3. *Checks* — Eq. 2: the CPU must stay under capacity with b0 moved
   there, else b0 is discarded and selection repeats.  Eq. 3: if the
   NIC is under capacity with b0 gone, migrate b0 and stop; otherwise
   migrate b0 and loop (the neighbour NF slides into the border).

:func:`push_aside` is that loop, written once.  It runs over one
:class:`~repro.resources.model.LoadModel` per co-located chain (a single
chain is a 1-tuple) and owns everything but Step 2: the empty plan, both
checks, the notes, the :data:`MAX_MIGRATIONS` guard and the scale-out
raise.  Each policy supplies only a :data:`PickRule`: PAM and
multi-chain PAM use :func:`pick_border`, naive uses the same key over
every SmartNIC NF, random draws from the SmartNIC NFs, and greedy-border
is PAM's rule with the Eq. 3 stop turned off.

Both checks judge the *moved* placement's re-summed utilisation, so a
plan that claims success leaves both devices strictly below capacity
even where subtracting or adding one NF's share would round across it.
Recomputing the border set at every pick is exact: CPU load only grows
during a selection, so an NF Eq. 2 rejects stays rejected.

When the candidate pool empties while the NIC is still overloaded, no
push-aside schedule exists: per the paper's closing remark the operator
must scale out, and :func:`push_aside` raises
:class:`~repro.errors.ScaleOutRequired` (or returns the partial plan
when ``strict=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (AbstractSet, Callable, Iterable, List, Optional, Set,
                    Tuple)

from ..chain.nf import DeviceKind
from ..chain.placement import Placement
from ..errors import ScaleOutRequired
from ..resources.model import LoadModel, ThroughputSpec
from .border import border_sets
from .feasibility import FeasibilityConfig
from .plan import MigrationAction, MigrationPlan

POLICY_NAME = "pam"

#: Upper bound on moves per selection: a runaway-loop guard far above
#: any real chain length.
MAX_MIGRATIONS = 64

#: One migration candidate: ``(chain index, NF name)``.
Candidate = Tuple[int, str]

#: Step 2 of a policy: the next candidate to push aside from the current
#: placements, skipping those Eq. 2 rejected; None when none is left.
PickRule = Callable[[Tuple[Placement, ...], AbstractSet[Candidate]],
                    Optional[Candidate]]


@dataclass(frozen=True)
class PAMConfig:
    """Tunables of the selection loop."""

    feasibility: FeasibilityConfig = field(default_factory=FeasibilityConfig)
    #: Raise :class:`ScaleOutRequired` when migration cannot alleviate;
    #: with False, return the partial plan marked ``alleviates=False``.
    strict: bool = True


@dataclass(frozen=True)
class Selection:
    """What :func:`push_aside` decided, chain by chain."""

    #: Ordered moves, each tagged with the index of its chain.
    moves: Tuple[Tuple[int, MigrationAction], ...]
    #: Every chain's placement after the moves.
    after: Tuple[Placement, ...]
    alleviates: bool
    notes: Tuple[str, ...]


def _utilisation(loads: Tuple[LoadModel, ...], device: DeviceKind) -> float:
    """Summed utilisation of the shared ``device`` over every chain."""
    return sum(load.device_load(device).utilisation for load in loads)


def min_theta(placements: Tuple[Placement, ...],
              rejected: AbstractSet[Candidate],
              pool: Callable[[Placement], Iterable[str]]
              ) -> Optional[Candidate]:
    """The minimum-theta^S candidate of ``pool`` over every chain.

    (chain index, chain position) breaks ties deterministically.
    """
    keyed = [(placement.chain.get(name).nic_capacity_bps, index,
              placement.chain.position(name), name)
             for index, placement in enumerate(placements)
             for name in pool(placement)
             if (index, name) not in rejected]
    if not keyed:
        return None
    __, index, __, name = min(keyed)
    return index, name


def pick_border(placements: Tuple[Placement, ...],
                rejected: AbstractSet[Candidate]) -> Optional[Candidate]:
    """PAM's Step 2: ``b0 = argmin_{b in B_L ∪ B_R} theta_b^S``."""
    return min_theta(placements, rejected,
                     lambda placement: border_sets(placement).all)


def push_aside(loads: Tuple[LoadModel, ...], pick: PickRule, policy: str,
               feasibility: FeasibilityConfig = FeasibilityConfig(),
               strict: bool = True,
               stop_at_eq3: bool = True) -> Selection:
    """Steps 2-3: push picked SmartNIC NFs to the CPU until Eq. 3 holds.

    With ``stop_at_eq3=False`` the loop keeps migrating until the pool
    empties (the greedy-border ablation).
    """
    threshold = feasibility.threshold
    if _utilisation(loads, DeviceKind.SMARTNIC) < threshold:
        return Selection(moves=(),
                         after=tuple(load.placement for load in loads),
                         alleviates=True, notes=("smartnic not overloaded",))

    moves: List[Tuple[int, MigrationAction]] = []
    notes: List[str] = []
    rejected: Set[Candidate] = set()
    while len(moves) < MAX_MIGRATIONS:
        choice = pick(tuple(load.placement for load in loads), rejected)
        if choice is None:
            notes.append("candidate pool exhausted")
            break
        index, name = choice
        placement = loads[index].placement
        moved = None
        if placement.chain.get(name).cpu_capable:
            moved = (loads[:index]
                     + (loads[index].after_move(name, DeviceKind.CPU),)
                     + loads[index + 1:])
        if moved is None or \
                _utilisation(moved, DeviceKind.CPU) >= threshold:
            # Eq. 2 failed: migrating b0 would create a CPU hot spot.
            notes.append(f"eq2 rejects {name} (cpu would overload)")
            rejected.add(choice)
            continue
        moves.append((index, MigrationAction(
            nf_name=name,
            source=DeviceKind.SMARTNIC,
            target=DeviceKind.CPU,
            crossing_delta=placement.crossing_delta(name, DeviceKind.CPU))))
        loads = moved
        if stop_at_eq3 and \
                _utilisation(loads, DeviceKind.SMARTNIC) < threshold:
            notes.append(f"eq3 satisfied after migrating {name}")
            break

    nic_utilisation = _utilisation(loads, DeviceKind.SMARTNIC)
    alleviates = nic_utilisation < threshold
    if not alleviates and strict:
        raise ScaleOutRequired(
            f"{policy} cannot alleviate the SmartNIC by migration; "
            "scale out per OpenNF",
            nic_utilisation=nic_utilisation,
            cpu_utilisation=_utilisation(loads, DeviceKind.CPU))
    return Selection(moves=tuple(moves),
                     after=tuple(load.placement for load in loads),
                     alleviates=alleviates, notes=tuple(notes))


def plan_chain(placement: Placement, throughput: ThroughputSpec,
               pick: PickRule, policy: str,
               feasibility: FeasibilityConfig = FeasibilityConfig(),
               strict: bool = True,
               stop_at_eq3: bool = True) -> MigrationPlan:
    """:func:`push_aside` on one chain, as a validated migration plan."""
    selection = push_aside((LoadModel(placement, throughput),), pick,
                           policy, feasibility, strict, stop_at_eq3)
    plan = MigrationPlan(
        actions=tuple(action for __, action in selection.moves),
        before=placement, after=selection.after[0],
        alleviates=selection.alleviates, policy=policy,
        notes=selection.notes)
    plan.validate()
    return plan


def select(placement: Placement, throughput: ThroughputSpec,
           config: PAMConfig = PAMConfig()) -> MigrationPlan:
    """Run PAM and return the migration plan for one overload episode."""
    return plan_chain(placement, throughput, pick_border, POLICY_NAME,
                      config.feasibility, config.strict)
