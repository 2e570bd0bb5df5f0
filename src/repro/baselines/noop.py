"""The do-nothing baseline — Figure 2's "before migration" series.

Never migrates; the chain rides out the overload with queueing delay
and drops.  Useful both as the pre-migration reference latency (PAM is
compared against it in S3: "almost unchanged") and as the control arm
in ablations.
"""

from __future__ import annotations

from typing import Tuple

from ..chain.nf import DeviceKind
from ..core.plan import MigrationPlan
from ..resources.model import (UTILISATION_BOUND, LoadModel,
                               shared_utilisation)

POLICY_NAME = "noop"


class NoopPolicy:
    """Always returns the empty plan."""

    name = POLICY_NAME

    def select(self, loads: Tuple[LoadModel, ...]) -> MigrationPlan:
        """Return the empty plan, whatever the load.

        It alleviates exactly when the SmartNIC needs no relief: the
        predicate of :func:`repro.core.pam.push_aside`'s "smartnic not
        overloaded" plan.
        """
        not_overloaded = (shared_utilisation(loads, DeviceKind.SMARTNIC)
                          < UTILISATION_BOUND)
        return MigrationPlan.empty(tuple(load.placement for load in loads),
                                   POLICY_NAME,
                                   alleviates=not_overloaded,
                                   notes=("noop policy never migrates",))
