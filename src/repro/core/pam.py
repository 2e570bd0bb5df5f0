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
chain is a 1-tuple) and returns one validated
:class:`~repro.core.plan.MigrationPlan`.  It owns everything but Step 2:
the empty plan, both checks, the notes, the :data:`MAX_MIGRATIONS` guard
and the scale-out raise.  Each policy supplies only a :data:`PickRule`:
PAM uses :func:`pick_border`, naive uses the same key over every
SmartNIC NF, random draws from the SmartNIC NFs, and greedy-border is
PAM's rule with the Eq. 3 stop turned off.  Border vNFs of every chain
compete; the Eq. 2 / Eq. 3 checks run on the summed utilisation of the
shared SmartNIC and CPU.

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

from typing import (AbstractSet, Callable, Iterable, List, Optional, Set,
                    Tuple)

from ..chain.nf import DeviceKind
from ..chain.placement import Placement
from ..errors import ScaleOutRequired
from ..resources.model import (UTILISATION_BOUND, LoadModel, ThroughputSpec,
                               shared_utilisation)
from .border import border_sets
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
               strict: bool = True,
               stop_at_eq3: bool = True) -> MigrationPlan:
    """Steps 2-3: push picked SmartNIC NFs to the CPU until Eq. 3 holds.

    With ``strict=False`` a plan that cannot alleviate comes back marked
    ``alleviates=False`` instead of raising :class:`ScaleOutRequired`.
    With ``stop_at_eq3=False`` the loop keeps migrating until the pool
    empties (the greedy-border ablation).
    """
    befores = tuple(load.placement for load in loads)
    if shared_utilisation(loads, DeviceKind.SMARTNIC) < UTILISATION_BOUND:
        plan = MigrationPlan.empty(befores, policy,
                                   notes=("smartnic not overloaded",))
        plan.validate()
        return plan

    actions: List[MigrationAction] = []
    notes: List[str] = []
    rejected: Set[Candidate] = set()
    while len(actions) < MAX_MIGRATIONS:
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
        if moved is None or shared_utilisation(
                moved, DeviceKind.CPU) >= UTILISATION_BOUND:
            # Eq. 2 failed: migrating b0 would create a CPU hot spot.
            notes.append(f"eq2 rejects {name} (cpu would overload)")
            rejected.add(choice)
            continue
        actions.append(MigrationAction(
            nf_name=name,
            source=DeviceKind.SMARTNIC,
            target=DeviceKind.CPU,
            crossing_delta=placement.crossing_delta(name, DeviceKind.CPU)))
        loads = moved
        if stop_at_eq3 and shared_utilisation(
                loads, DeviceKind.SMARTNIC) < UTILISATION_BOUND:
            notes.append(f"eq3 satisfied after migrating {name}")
            break

    nic_utilisation = shared_utilisation(loads, DeviceKind.SMARTNIC)
    alleviates = nic_utilisation < UTILISATION_BOUND
    if not alleviates and strict:
        raise ScaleOutRequired(
            f"{policy} cannot alleviate the SmartNIC by migration; "
            "scale out per OpenNF",
            nic_utilisation=nic_utilisation,
            cpu_utilisation=shared_utilisation(loads, DeviceKind.CPU))
    plan = MigrationPlan(
        actions=tuple(actions), befores=befores,
        afters=tuple(load.placement for load in loads),
        alleviates=alleviates, policy=policy, notes=tuple(notes))
    plan.validate()
    return plan


def select(placement: Placement, throughput: ThroughputSpec, *,
           strict: bool = True) -> MigrationPlan:
    """Run PAM on one chain and return the plan for one overload episode.

    :meth:`~repro.core.planner.PAMPolicy.select` on the chain's load
    model as a 1-tuple.
    """
    return push_aside((LoadModel(placement, throughput),), pick_border,
                      POLICY_NAME, strict)
