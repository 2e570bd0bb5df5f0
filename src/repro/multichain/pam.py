"""PAM generalised to multiple co-located chains.

The selection algebra is unchanged — it is the same
:func:`~repro.core.pam.push_aside` loop and the same
:func:`~repro.core.pam.pick_border` rule, run over one load model per
chain: border vNFs of *every* chain compete, and b0 is still the
minimum-theta^S candidate.  Crossing-count safety holds per chain (each
chain's own geometry decides whether a move adds crossings), and the
Eq. 2 / Eq. 3 checks run against the *aggregate* device utilisation,
because the SmartNIC and CPU are shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.feasibility import FeasibilityConfig
from ..core.pam import pick_border, push_aside
from ..core.plan import MigrationAction, MigrationPlan
from .model import ChainLoad, MultiChainLoadModel

POLICY_NAME = "pam-multichain"


@dataclass(frozen=True)
class MultiChainAction(MigrationAction):
    """One move of a multi-chain plan, tagged with its chain's index."""

    chain_index: int


@dataclass(frozen=True)
class MultiChainPlan:
    """Ordered moves across chains plus predicted placements.

    Executes through :class:`~repro.migration.executor.MigrationExecutor`
    like a single-chain :class:`~repro.core.plan.MigrationPlan`.
    """

    actions: Tuple[MultiChainAction, ...]
    before: Tuple[ChainLoad, ...]
    after: Tuple[ChainLoad, ...]
    alleviates: bool
    notes: Tuple[str, ...] = ()

    @property
    def is_noop(self) -> bool:
        """Whether the plan moves nothing."""
        return not self.actions

    @property
    def migrated_names(self) -> List[str]:
        """Names of NFs the plan moves, in execution order."""
        return [action.nf_name for action in self.actions]

    def actions_for_chain(self, chain_index: int) -> List[MultiChainAction]:
        """The moves touching one chain, in order."""
        return [a for a in self.actions if a.chain_index == chain_index]

    def validate(self) -> None:
        """Check each chain's moves take its before placement to its
        after placement (see :meth:`MigrationPlan.validate`)."""
        for index, (before, after) in enumerate(zip(self.before,
                                                    self.after)):
            MigrationPlan(tuple(self.actions_for_chain(index)),
                          before.placement, after.placement,
                          self.alleviates).validate()


def select(chains: Sequence[ChainLoad],
           feasibility: FeasibilityConfig = FeasibilityConfig(),
           strict: bool = True) -> MultiChainPlan:
    """Run the shared push-aside loop over co-located chains."""
    before = MultiChainLoadModel(chains).chains
    selection = push_aside(tuple(chain.model() for chain in before),
                           pick_border, POLICY_NAME, feasibility, strict)
    return MultiChainPlan(
        actions=tuple(MultiChainAction(
            chain_index=index, nf_name=action.nf_name,
            source=action.source, target=action.target,
            crossing_delta=action.crossing_delta)
            for index, action in selection.moves),
        before=before,
        after=tuple(ChainLoad(placement, chain.throughput)
                    for placement, chain in zip(selection.after, before)),
        alleviates=selection.alleviates, notes=selection.notes)
