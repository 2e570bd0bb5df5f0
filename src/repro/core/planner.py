"""The control plane: periodic load query -> policy -> executor.

:class:`MigrationController` is the paper's operator loop as a
:class:`~repro.sim.runner.Controller`: on each monitor tick it feeds the
SmartNIC utilisation to a debounced overload detector and, on overload,
asks its :class:`SelectionPolicy` for a plan and hands it to the
migration executor.  The same controller drives PAM and every baseline —
only the policy differs — so policy comparisons hold everything else
fixed.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple

from ..errors import ScaleOutRequired
from ..migration.cost import MigrationCostModel
from ..migration.executor import MigrationExecutor, MigrationRecord
from ..resources.model import LoadModel
from ..sim.runner import TickContext
from ..telemetry.overload import OverloadDetector
from .pam import POLICY_NAME, PAMConfig, pick_border, push_aside
from .plan import MigrationPlan


class SelectionPolicy(Protocol):
    """A migration-selection algorithm (PAM or a baseline)."""

    #: Short identifier used in reports ("pam", "naive", ...).
    name: str

    def select(self, loads: Tuple[LoadModel, ...]) -> MigrationPlan:
        """Choose which NFs to migrate, given one load model per chain
        sharing the server (a single chain is a 1-tuple)."""


class PAMPolicy:
    """The paper's algorithm as a :class:`SelectionPolicy`."""

    name = POLICY_NAME

    def __init__(self, config: PAMConfig = PAMConfig()) -> None:
        self.config = config

    def select(self, loads: Tuple[LoadModel, ...]) -> MigrationPlan:
        """Run the paper's selection loop with this policy's config."""
        return push_aside(loads, pick_border, POLICY_NAME,
                          self.config.feasibility, self.config.strict)


class MigrationController:
    """Detect overload, plan with a policy, execute migrations."""

    def __init__(self, policy: SelectionPolicy,
                 detector: Optional[OverloadDetector] = None,
                 cost_model: MigrationCostModel = MigrationCostModel(),
                 react_once: bool = False,
                 active_flows: int = 0) -> None:
        self.policy = policy
        self.detector = detector or OverloadDetector()
        self.cost_model = cost_model
        #: Live flow count handed to the state-size model at migration time.
        self.active_flows = active_flows
        #: With True the controller fires at most one plan per run —
        #: the paper's evaluation migrates once and then measures.
        self.react_once = react_once
        self._executor: Optional[MigrationExecutor] = None
        self._reacted = False
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
                context.server, context.network, context.engine,
                cost_model=self.cost_model,
                active_flows=self.active_flows)
        return self._executor

    def on_tick(self, context: TickContext) -> None:
        """One operator query: detect, plan, execute."""
        nic_util = context.load.nic_load().utilisation
        overloaded = self.detector.update(nic_util)
        if not overloaded:
            return
        if self.react_once and self._reacted:
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
        self._reacted = True
        executor.apply(plan, context.offered_bps)
