"""Production-hardened control loop around PAM.

The bare :class:`~repro.core.planner.MigrationController` reacts to
every overload sample.  Operating a real fleet needs more discipline,
and :class:`HardenedController` adds it:

* **cooldown** — a minimum quiet period between executed plans, so one
  traffic wobble cannot trigger a migration storm;
* **flap damping** — an NF that migrated recently may not migrate again
  until its damp window expires (suppresses A->B->A ping-pong between
  the forward policy and the pull-back);
* **migration budget** — a hard cap on migrations per run, because each
  move costs control-plane work and transient latency;
* **pull-back** — optionally runs
  :func:`~repro.core.reverse.select_pullback` when the NIC has been
  quiet, returning pushed-aside NFs to the fast path.

The loop is also fault-tolerant: the executor reports a
:class:`~repro.migration.executor.PlanOutcome` per plan, and a failed
plan must not poison the control loop.  On abort the controller releases
the cooldown window it charged at admission, clears flap-damp state for
rolled-back NFs (only completed moves count against the budget and the
damp window), and re-enters planning on the next tick.  Stale telemetry
(monitor samples older than ``telemetry_stale_s``) suppresses planning
entirely rather than driving migrations off a frozen load estimate.

The hardened loop composes with any
:class:`~repro.core.planner.SelectionPolicy`.  Policies and pull-back
plan over one load model per chain, so on a server hosting co-located
chains every cross-chain move gets the same guard rails and the
executor's retry and rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..chain.nf import DeviceKind
from ..core.plan import MigrationPlan
from ..errors import ConfigurationError, ScaleOutRequired
from ..migration.cost import MigrationCostModel
from ..migration.executor import (OUTCOME_SUCCEEDED, FailureHook,
                                  MigrationExecutor, MigrationRecord,
                                  PlanOutcome, RetryPolicy)
from ..resources.model import UTILISATION_BOUND, shared_utilisation
from ..sim.runner import TickContext
from .planner import PAMPolicy, SelectionPolicy
from .reverse import PullbackConfig, select_pullback


@dataclass(frozen=True)
class HardeningConfig:
    """Operational guard rails."""

    #: Minimum seconds between two executed plans.
    cooldown_s: float = 0.01
    #: An NF may not migrate twice within this window.
    flap_damp_s: float = 0.05
    #: Hard cap on migrations over the controller's lifetime.
    migration_budget: int = 16
    #: Enable the pull-back pass when the NIC is quiet.
    enable_pullback: bool = True
    pullback: PullbackConfig = field(default_factory=PullbackConfig)
    #: Suppress planning when the monitor sample driving this tick is
    #: older than this (``None`` disables the check).
    telemetry_stale_s: Optional[float] = None
    #: Per-action timeout forwarded to the executor (``None`` = no cap).
    action_timeout_s: Optional[float] = None
    #: Retry schedule forwarded to the executor.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.cooldown_s < 0 or self.flap_damp_s < 0:
            raise ConfigurationError("windows must be >= 0")
        if self.migration_budget < 1:
            raise ConfigurationError("budget must be >= 1")
        if self.telemetry_stale_s is not None and self.telemetry_stale_s <= 0:
            raise ConfigurationError("stale threshold must be positive")
        if self.action_timeout_s is not None and self.action_timeout_s <= 0:
            raise ConfigurationError("action timeout must be positive")


class HardenedController:
    """Cooldown + damping + budget + pull-back around a policy."""

    def __init__(self, policy: Optional[SelectionPolicy] = None,
                 config: HardeningConfig = HardeningConfig(),
                 failure_hook: Optional[FailureHook] = None) -> None:
        self.policy = policy or PAMPolicy()
        self.config = config
        #: Read when the executor is first built; the resilience
        #: controller swaps in a standby-aware model before that.
        self.cost_model = MigrationCostModel()
        #: Forwarded to the executor; the chaos harness injects
        #: mid-transfer migration failures through this.
        self.failure_hook = failure_hook
        self._executor: Optional[MigrationExecutor] = None
        self._last_plan_s: Optional[float] = None
        self._last_moved: Dict[str, float] = {}
        #: NFs the forward policy pushed to the CPU — the only ones the
        #: pull-back pass may return (restores the baseline placement).
        self._pushed: set = set()
        self.scaleout_events: List[float] = []
        #: Distinct plans the guard rails refused (damped, or over the
        #: remaining budget).  A plan re-selected and refused again on
        #: the next tick with the same moves counts once.
        self.suppressed_plans: int = 0
        # The (nf_name, target) moves of the last suppressed plan;
        # forgotten once a plan is admitted or a tick plans nothing.
        self._suppressed_moves: Optional[tuple] = None
        #: Plans the executor aborted after exhausting retries.
        self.failed_plans: int = 0
        #: Ticks skipped because the monitor sample was stale.
        self.stale_ticks: int = 0

    # -- runner integration ------------------------------------------------

    @property
    def executor(self) -> Optional[MigrationExecutor]:
        """The lazily-created executor (``None`` before the first plan)."""
        return self._executor

    @property
    def migrations(self) -> List[MigrationRecord]:
        """Records of migrations that actually completed."""
        return self._executor.successes if self._executor else []

    @property
    def attempts(self) -> List[MigrationRecord]:
        """All attempt records, including rolled-back and aborted ones."""
        return self._executor.records if self._executor else []

    @property
    def budget_left(self) -> int:
        """Migrations still allowed under the budget.

        Only completed moves are charged: a plan that rolled back does
        not leak budget.
        """
        return self.config.migration_budget - len(self.migrations)

    def _executor_for(self, context: TickContext) -> MigrationExecutor:
        if self._executor is None:
            self._executor = MigrationExecutor(
                context.server, context.networks, context.engine,
                cost_model=self.cost_model,
                retry=self.config.retry,
                failure_hook=self.failure_hook,
                action_timeout_s=self.config.action_timeout_s)
        return self._executor

    def ensure_executor(self, context: TickContext) -> MigrationExecutor:
        """The executor, created on first use.

        Public so wrapping layers (the resilience controller) can run
        their plans through the *same* executor: one busy flag, one
        retry RNG, one combined migration record — exactly as a real
        control plane has one migration pipeline.
        """
        return self._executor_for(context)

    # -- guard rails --------------------------------------------------------

    def _cooling_down(self, now_s: float) -> bool:
        return (self._last_plan_s is not None
                and now_s - self._last_plan_s < self.config.cooldown_s)

    def _damped(self, plan: MigrationPlan, now_s: float) -> bool:
        """Whether any NF in the plan migrated too recently."""
        for name in plan.migrated_names:
            moved_at = self._last_moved.get(name)
            if moved_at is not None and \
                    now_s - moved_at < self.config.flap_damp_s:
                return True
        return False

    def _admit(self, plan: MigrationPlan, context: TickContext) -> bool:
        """Apply guard rails; execute the plan if it passes."""
        now = context.now_s
        if plan.is_noop:
            self._suppressed_moves = None
            return False
        if self._damped(plan, now) or \
                len(plan.actions) > self.budget_left:
            moves = tuple((a.nf_name, a.target) for a in plan.actions)
            if moves != self._suppressed_moves:
                self._suppressed_moves = moves
                self.suppressed_plans += 1
            return False
        executor = self._executor_for(context)
        if executor.busy:
            return False
        self._suppressed_moves = None
        # Charge the cooldown now; a failed plan hands it back in
        # _on_outcome so planning re-enters on the next tick.
        previous_plan_s = self._last_plan_s
        self._last_plan_s = now
        executor.apply(
            plan, context.offered,
            on_outcome=lambda outcome: self._on_outcome(
                plan, outcome, previous_plan_s))
        return True

    def _on_outcome(self, plan: MigrationPlan, outcome: PlanOutcome,
                    previous_plan_s: Optional[float]) -> None:
        """Settle guard-rail state once the executor reports back."""
        targets = {action.nf_name: action.target for action in plan.actions}
        for record in outcome.records:
            if record.outcome != OUTCOME_SUCCEEDED:
                continue
            # Completed moves are real migrations: they damp and (via
            # the records list) consume budget.
            self._last_moved[record.nf_name] = record.completed_s
            if targets[record.nf_name] is DeviceKind.CPU:
                self._pushed.add(record.nf_name)
            else:
                self._pushed.discard(record.nf_name)
        if not outcome.succeeded:
            self.failed_plans += 1
            # Release the cooldown charged at admission and forget damp
            # state for NFs whose moves rolled back — they never moved,
            # so nothing should stop the next tick from replanning them.
            self._last_plan_s = previous_plan_s
            for name in outcome.rolled_back_nfs:
                if name not in {r.nf_name for r in outcome.records
                                if r.outcome == OUTCOME_SUCCEEDED}:
                    self._last_moved.pop(name, None)

    # -- the loop --------------------------------------------------------------

    def on_tick(self, context: TickContext) -> None:
        """One hardened operator cycle."""
        stale = self.config.telemetry_stale_s
        if stale is not None and context.telemetry_age_s > stale:
            # The load estimate is a relic of a telemetry dropout;
            # migrating on it would be acting on fiction.
            self.stale_ticks += 1
            return
        if self._cooling_down(context.now_s):
            return
        if shared_utilisation(context.loads,
                              DeviceKind.SMARTNIC) > UTILISATION_BOUND:
            try:
                plan = self.policy.select(context.loads)
            except ScaleOutRequired:
                self.scaleout_events.append(context.now_s)
                return
            self._admit(plan, context)
        elif self.config.enable_pullback and self._pushed:
            plan = select_pullback(context.loads, self.config.pullback,
                                   eligible=self._pushed)
            self._admit(plan, context)
        else:
            self._suppressed_moves = None
