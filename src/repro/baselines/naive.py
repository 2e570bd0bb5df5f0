"""The naive / UNO-style baseline (paper S3).

"For the naive algorithm, we pick the vNF on SmartNIC with minimal
capacity theta_NF^S" — i.e. the *bottleneck* NF, wherever it sits in
the chain.  When that NF is mid-segment the move splits a SmartNIC run
in two and adds two PCIe crossings, which is exactly the latency penalty
PAM avoids.

For a fair comparison the baseline runs PAM's own loop
(:func:`repro.core.pam.push_aside`) with a wider candidate pool: it
skips NFs the CPU cannot absorb (Eq. 2) and keeps migrating by ascending
capacity until the NIC is alleviated (Eq. 3), raising
:class:`~repro.errors.ScaleOutRequired` when it runs out of candidates.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Tuple

from ..chain.placement import Placement
from ..core.pam import Candidate, min_theta, push_aside
from ..core.plan import MigrationPlan
from ..resources.model import LoadModel, ThroughputSpec

POLICY_NAME = "naive"


def pick_bottleneck(placements: Tuple[Placement, ...],
                    rejected: AbstractSet[Candidate]) -> Optional[Candidate]:
    """The naive Step 2: the minimum-theta^S NF anywhere on the SmartNIC."""
    return min_theta(placements, rejected,
                     lambda placement: [nf.name for nf in placement.nic_nfs()])


def select(placement: Placement, throughput: ThroughputSpec, *,
           strict: bool = True) -> MigrationPlan:
    """Migrate min-capacity SmartNIC NFs of one chain until the NIC is
    alleviated."""
    return NaivePolicy(strict=strict).select(
        (LoadModel(placement, throughput),))


class NaivePolicy:
    """:class:`~repro.core.planner.SelectionPolicy` wrapper; ``strict``
    as for :class:`~repro.core.planner.PAMPolicy`."""

    name = POLICY_NAME

    def __init__(self, *, strict: bool = True) -> None:
        self.strict = strict

    def select(self, loads: Tuple[LoadModel, ...]) -> MigrationPlan:
        """Run the naive loop."""
        return push_aside(loads, pick_bottleneck, POLICY_NAME, self.strict)
