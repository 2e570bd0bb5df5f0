"""Over-migration ablation: push *every* feasible border NF aside.

PAM's Step 2 deliberately migrates the *minimum* number of NFs ("
migrating too many vNFs may waste CPU resource").  This policy ignores
that and keeps migrating border NFs even after Eq. 3 is satisfied, as
long as the CPU has room — quantifying the CPU waste and throughput
loss PAM's stopping rule prevents (bench A3).
"""

from __future__ import annotations

from typing import Tuple

from ..core.pam import pick_border, push_aside
from ..core.plan import MigrationPlan
from ..resources.model import LoadModel

POLICY_NAME = "greedy-border"


class GreedyBorderPolicy:
    """Migrates border NFs until none fits on the CPU any more."""

    name = POLICY_NAME

    def select(self, loads: Tuple[LoadModel, ...]) -> MigrationPlan:
        """Migrate every feasible border NF, ignoring the stop rule."""
        return push_aside(loads, pick_border, POLICY_NAME,
                          strict=False, stop_at_eq3=False)
