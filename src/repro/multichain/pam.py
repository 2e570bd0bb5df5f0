"""PAM generalised to multiple co-located chains.

The selection algebra is unchanged — only the candidate pool widens:
border vNFs of *every* chain compete, and b0 is still the minimum-theta^S
candidate.  Crossing-count safety holds per chain (each chain's own
geometry decides whether a move adds crossings), and the Eq. 2 / Eq. 3
checks run against the *aggregate* device utilisation, because the
SmartNIC and CPU are shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..chain.nf import DeviceKind
from ..core.border import BorderSets, border_sets, refreshed_border_sets
from ..core.feasibility import FeasibilityConfig
from ..errors import ScaleOutRequired
from .model import ChainLoad, MultiChainLoadModel

POLICY_NAME = "pam-multichain"


@dataclass(frozen=True)
class MultiChainAction:
    """One move: (chain index, NF, target device)."""

    chain_index: int
    nf_name: str
    target: DeviceKind
    crossing_delta: int


@dataclass(frozen=True)
class MultiChainPlan:
    """Ordered moves across chains plus predicted placements."""

    actions: Tuple[MultiChainAction, ...]
    before: Tuple[ChainLoad, ...]
    after: Tuple[ChainLoad, ...]
    alleviates: bool
    notes: Tuple[str, ...] = ()

    @property
    def is_noop(self) -> bool:
        """Whether the plan moves nothing."""
        return not self.actions

    def actions_for_chain(self, chain_index: int) -> List[MultiChainAction]:
        """The moves touching one chain, in order."""
        return [a for a in self.actions if a.chain_index == chain_index]

    @property
    def total_crossing_delta(self) -> int:
        """Net PCIe-crossing change summed over every chain."""
        return sum(action.crossing_delta for action in self.actions)


def select(chains: Sequence[ChainLoad],
           feasibility: FeasibilityConfig = FeasibilityConfig(),
           strict: bool = True,
           max_migrations: int = 64) -> MultiChainPlan:
    """Run the multi-chain PAM loop over co-located chains."""
    model = MultiChainLoadModel(chains)
    before = model.chains
    if model.nic_utilisation() < feasibility.threshold:
        return MultiChainPlan(actions=(), before=before, after=before,
                              alleviates=True,
                              notes=("smartnic not overloaded",))

    borders: Dict[int, BorderSets] = {
        index: border_sets(chain.placement)
        for index, chain in enumerate(model.chains)}
    actions: List[MultiChainAction] = []
    notes: List[str] = []
    alleviates = False

    def candidates() -> List[Tuple[int, str]]:
        pool = []
        for index, sets in borders.items():
            placement = model.chains[index].placement
            for name in sets.all:
                pool.append((index, name))
        # Min theta^S first; (chain, position) breaks ties.
        pool.sort(key=lambda pair: (
            model.chains[pair[0]].placement.chain.get(pair[1])
                 .nic_capacity_bps,
            pair[0],
            model.chains[pair[0]].placement.chain.position(pair[1])))
        return pool

    while len(actions) < max_migrations:
        pool = candidates()
        if not pool:
            notes.append("border pool exhausted before alleviation")
            break
        chain_index, b0_name = pool[0]
        placement = model.chains[chain_index].placement
        b0 = placement.chain.get(b0_name)
        if not b0.cpu_capable or \
                model.cpu_with(chain_index, b0) >= feasibility.threshold:
            notes.append(f"eq2 rejects {b0_name} (chain {chain_index})")
            borders[chain_index] = borders[chain_index].without(b0_name)
            continue
        was_left = b0_name in borders[chain_index].left
        delta = placement.crossing_delta(b0_name, DeviceKind.CPU)
        actions.append(MultiChainAction(
            chain_index=chain_index, nf_name=b0_name,
            target=DeviceKind.CPU, crossing_delta=delta))
        model = model.after_move(chain_index, b0_name, DeviceKind.CPU)
        # Eq. 3 on the moved model: the what-if subtraction
        # (nic_without) can round below the threshold while the
        # re-summed utilisation lands exactly on it.
        done = model.nic_utilisation() < feasibility.threshold
        borders[chain_index] = refreshed_border_sets(
            model.chains[chain_index].placement, borders[chain_index],
            b0_name, was_left)
        if done:
            alleviates = True
            notes.append(
                f"eq3 satisfied after migrating {b0_name} "
                f"(chain {chain_index})")
            break

    plan = MultiChainPlan(
        actions=tuple(actions), before=before, after=model.chains,
        alleviates=alleviates, notes=tuple(notes))
    if not alleviates and strict:
        raise ScaleOutRequired(
            "multi-chain PAM cannot alleviate the shared SmartNIC",
            nic_utilisation=model.nic_utilisation(),
            cpu_utilisation=model.cpu_utilisation())
    return plan
