"""Migration plans: the output of a selection algorithm.

A plan is an ordered list of single-NF moves plus the predicted
before/after placements of every chain on the server, so callers can
inspect what a policy *intends* before the executor turns it into
simulated pause/transfer/resume events.  A single chain is the 1-tuple
case; an action finds its chain by NF name, which is unique across a
server's chains.  Plans also carry the predicted PCIe-crossing delta —
the quantity PAM minimises and the naive policy ignores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..chain.nf import DeviceKind
from ..chain.placement import Placement, check_unique_names
from ..errors import InfeasiblePlanError, PlacementError


@dataclass(frozen=True)
class MigrationAction:
    """One NF move."""

    nf_name: str
    source: DeviceKind
    target: DeviceKind
    #: Change in end-to-end PCIe crossings this single move causes,
    #: evaluated against the placement it applies to.
    crossing_delta: int

    def __post_init__(self) -> None:
        if self.source is self.target:
            raise InfeasiblePlanError(
                f"action moves {self.nf_name!r} nowhere ({self.source.value})")


@dataclass(frozen=True)
class MigrationPlan:
    """An ordered sequence of moves with predicted outcomes."""

    actions: Tuple[MigrationAction, ...]
    #: Every chain's placement before the moves, in install order.
    befores: Tuple[Placement, ...]
    #: Every chain's placement after the moves, in the same order.
    afters: Tuple[Placement, ...]
    #: Whether the policy predicts the SmartNIC overload is resolved.
    alleviates: bool
    #: Policy that produced the plan ("pam", "naive", ...), for reports.
    policy: str = "unspecified"
    #: Free-form diagnostic notes appended during selection.
    notes: Tuple[str, ...] = ()

    @classmethod
    def empty(cls, placements: Tuple[Placement, ...], policy: str,
              alleviates: bool = True, notes: Tuple[str, ...] = ()) -> "MigrationPlan":
        """The do-nothing plan (no overload, or policy declined to act)."""
        return cls(actions=(), befores=placements, afters=placements,
                   alleviates=alleviates, policy=policy, notes=notes)

    @property
    def before(self) -> Placement:
        """The single chain's placement before the moves."""
        return _only(self.befores)

    @property
    def after(self) -> Placement:
        """The single chain's placement after the moves."""
        return _only(self.afters)

    @property
    def is_noop(self) -> bool:
        """Whether the plan moves nothing."""
        return not self.actions

    @property
    def migrated_names(self) -> List[str]:
        """Names of NFs the plan moves, in execution order."""
        return [action.nf_name for action in self.actions]

    @property
    def total_crossing_delta(self) -> int:
        """Net change in PCIe crossings over the whole plan.

        Equivalent to the summed ``pcie_crossings()`` of ``afters``
        minus that of ``befores``; kept as a sum of per-action deltas
        so tests can cross-check both.
        """
        return sum(action.crossing_delta for action in self.actions)

    def actions_for_chain(self, index: int) -> List[MigrationAction]:
        """The moves of chain ``index`` (its NFs), in order."""
        chain = self.befores[index].chain
        return [action for action in self.actions
                if action.nf_name in chain]

    def validate(self) -> None:
        """Check internal consistency (befores + actions == afters).

        Raises :class:`InfeasiblePlanError` on any mismatch; the policy
        implementations call this before returning a plan.  Chains are
        independent, so each chain's moves are replayed on its own.
        """
        if not self.befores:
            raise PlacementError("a plan needs at least one chain")
        if len(self.afters) != len(self.befores):
            raise InfeasiblePlanError(
                f"plan maps {len(self.befores)} chains to "
                f"{len(self.afters)}; it needs one after-placement each")
        check_unique_names(self.befores)
        per_chain = [self.actions_for_chain(index)
                     for index in range(len(self.befores))]
        if sum(map(len, per_chain)) != len(self.actions):
            raise InfeasiblePlanError(
                "plan moves an NF that none of its chains hosts")
        for placement, after, actions in zip(self.befores, self.afters,
                                             per_chain):
            for action in actions:
                if placement.device_of(action.nf_name) is not action.source:
                    raise InfeasiblePlanError(
                        f"action on {action.nf_name!r} expects source "
                        f"{action.source.value}, placement disagrees")
                predicted = placement.crossing_delta(action.nf_name,
                                                     action.target)
                if predicted != action.crossing_delta:
                    raise InfeasiblePlanError(
                        f"action on {action.nf_name!r} claims crossing "
                        f"delta {action.crossing_delta}, recomputation "
                        f"gives {predicted}")
                placement = placement.moved(action.nf_name, action.target)
            if placement != after:
                raise InfeasiblePlanError(
                    "plan's after-placement does not match applying its "
                    "actions")


def _only(placements: Tuple[Placement, ...]) -> Placement:
    """The one placement of a single-chain plan."""
    if len(placements) != 1:
        raise PlacementError(
            f"the plan covers {len(placements)} chains; this needs a "
            "single chain")
    return placements[0]
