"""Random-selection baseline (sanity check for the ablations).

Picks uniformly random SmartNIC NFs (subject to Eq. 2) until the NIC is
alleviated.  Seeded for reproducibility.  Comparing PAM against this
shows how much of PAM's win comes from *border* selection versus simply
shedding load.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Optional, Tuple

from ..chain.placement import Placement
from ..core.pam import Candidate, push_aside
from ..core.plan import MigrationPlan
from ..resources.model import LoadModel

POLICY_NAME = "random"


class RandomPolicy:
    """Uniformly random feasible NIC NF, repeated until alleviation."""

    name = POLICY_NAME

    def __init__(self, seed: int = 42, *, strict: bool = True) -> None:
        self.rng = random.Random(seed)
        self.strict = strict

    def _pick(self, placements: Tuple[Placement, ...],
              rejected: AbstractSet[Candidate]) -> Optional[Candidate]:
        """Step 2: a uniform draw over the SmartNIC NFs, in chain order."""
        pool = [(index, nf.name)
                for index, placement in enumerate(placements)
                for nf in placement.nic_nfs()
                if (index, nf.name) not in rejected]
        return self.rng.choice(pool) if pool else None

    def select(self, loads: Tuple[LoadModel, ...]) -> MigrationPlan:
        """Migrate random feasible NIC NFs until alleviation."""
        return push_aside(loads, self._pick, POLICY_NAME, self.strict)
