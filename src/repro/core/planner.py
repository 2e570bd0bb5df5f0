"""The control plane: periodic load query -> policy -> executor.

:class:`MigrationController` is the paper's operator loop as a
:class:`~repro.sim.runner.Controller`: on each monitor tick it checks
whether the SmartNIC utilisation exceeds 1 and, on overload, asks its
:class:`SelectionPolicy` for a plan and hands it to the migration
executor.  The same controller drives PAM and every baseline — only the
policy differs — so policy comparisons hold everything else fixed.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple

from ..errors import ScaleOutRequired
from ..migration.executor import MigrationExecutor, MigrationRecord
from ..resources.model import LoadModel
from ..sim.runner import TickContext
from .pam import POLICY_NAME, pick_border, push_aside
from .plan import MigrationPlan


class SelectionPolicy(Protocol):
    """A migration-selection algorithm (PAM or a baseline)."""

    #: Short identifier used in reports ("pam", "naive", ...).
    name: str

    def select(self, loads: Tuple[LoadModel, ...]) -> MigrationPlan:
        """Choose which NFs to migrate, given one load model per chain
        sharing the server (a single chain is a 1-tuple)."""


class PAMPolicy:
    """The paper's algorithm as a :class:`SelectionPolicy`.

    ``strict=False`` returns a partial plan marked ``alleviates=False``
    where the default raises :class:`~repro.errors.ScaleOutRequired`.
    """

    name = POLICY_NAME

    def __init__(self, *, strict: bool = True) -> None:
        self.strict = strict

    def select(self, loads: Tuple[LoadModel, ...]) -> MigrationPlan:
        """Run the paper's selection loop."""
        return push_aside(loads, pick_border, POLICY_NAME, self.strict)


class MigrationController:
    """Detect overload, plan with a policy, execute migrations."""

    def __init__(self, policy: SelectionPolicy) -> None:
        self.policy = policy
        self._executor: Optional[MigrationExecutor] = None
        #: Times the policy raised ScaleOutRequired, for reporting.
        self.scaleout_events: List[float] = []

    # -- runner integration --------------------------------------------------

    @property
    def migrations(self) -> List[MigrationRecord]:
        """Completed migration records (what the runner reports)."""
        return self._executor.records if self._executor else []

    def _executor_for(self, context: TickContext) -> MigrationExecutor:
        if self._executor is None:
            self._executor = MigrationExecutor(
                context.server, context.network, context.engine)
        return self._executor

    def on_tick(self, context: TickContext) -> None:
        """One operator query: detect, plan, execute."""
        if not context.load.nic_load().overloaded:
            return
        executor = self._executor_for(context)
        if executor.busy:
            return
        try:
            plan = self.policy.select(context.loads)
        except ScaleOutRequired:
            self.scaleout_events.append(context.now_s)
            return
        if plan.is_noop:
            return
        executor.apply(plan, context.offered_bps)
