"""Applies a migration plan to a live simulation, fault-tolerantly.

The executor turns each :class:`~repro.core.plan.MigrationAction` into
the pause/transfer/resume timeline of :mod:`repro.migration.cost`:

* pause the station (arrivals buffer, loss-free),
* wait out the migration cost (and any in-flight packet still being
  served on the old device — real migrations drain the pipeline),
* re-host the NF on the target device, rebind and resume the station,
* refresh both devices' demand so processor-sharing slowdowns reflect
  the new placement.

Real state-transfer mechanisms (UNO/OpenNF) time out and abort
mid-transfer, so every action runs as a supervised **attempt**:

* an injectable :data:`FailureHook` can fail the attempt mid-transfer
  (probabilistically or on a schedule — the chaos harness uses both);
* a per-action **timeout** bounds how long one attempt may take,
  including the bounded in-flight drain wait;
* a failed attempt **rolls back**: the NF is re-bound to its source
  device and resumed loss-free (the pause buffer replays, nothing is
  dropped), and device demand is refreshed;
* rolled-back attempts are **retried** with exponential backoff plus
  seeded jitter (:class:`RetryPolicy`) until the attempt cap, after
  which the action — and the whole plan — is **aborted**; remaining
  actions are left unexecuted and the network stays consistent.

Every attempt appends a :class:`MigrationRecord` with its outcome
(``succeeded`` / ``rolled_back`` / ``aborted``), and every plan produces
a :class:`PlanOutcome` the operator layer consumes to release guard
rails (budget, cooldown, flap damping) held by a failed plan.

Actions execute **sequentially**: operators migrate one NF at a time so
at most one chain element is buffering at any instant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..devices.server import Server

if TYPE_CHECKING:  # break the core <-> migration import cycle: the
    # executor only consumes plan objects, it never constructs them.
    from ..core.plan import MigrationAction, MigrationPlan
from ..errors import ConfigurationError, MigrationError
from ..resources.model import ThroughputSpec
from ..sim.engine import Engine
from ..sim.network import ChainNetwork
from ..units import usec
from .cost import MigrationCost, MigrationCostModel

#: Terminal outcome of one migration attempt.
OUTCOME_SUCCEEDED = "succeeded"
OUTCOME_ROLLED_BACK = "rolled_back"
OUTCOME_ABORTED = "aborted"

#: A hook the chaos layer injects to fail attempts mid-transfer.  Called
#: once per attempt with ``(action, attempt_number)``; returning ``None``
#: lets the attempt proceed, returning a fraction in ``[0, 1]`` fails it
#: after that fraction of the estimated transfer time has elapsed.
FailureHook = Callable[["MigrationAction", int], Optional[float]]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for rolled-back attempts."""

    #: Total attempts per action (first try included).
    max_attempts: int = 3
    #: Delay before the first retry.
    backoff_base_s: float = usec(200.0)
    #: Growth factor between consecutive retries.
    backoff_multiplier: float = 2.0
    #: Ceiling on any single backoff delay.
    backoff_cap_s: float = 0.02
    #: Uniform jitter as a fraction of the delay (0 disables).
    jitter_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if not (0.0 <= self.jitter_frac < 1.0):
            raise ConfigurationError("jitter fraction must be in [0, 1)")

    def delay_s(self, failures: int, rng: random.Random) -> float:
        """Backoff before the retry following the ``failures``-th failure.

        Deterministic for a fixed RNG state: the jitter comes from the
        executor's seeded generator, so retry schedules replay exactly
        under a fixed seed.
        """
        if failures < 1:
            raise ConfigurationError("failures must be >= 1")
        raw = min(self.backoff_cap_s,
                  self.backoff_base_s *
                  self.backoff_multiplier ** (failures - 1))
        if self.jitter_frac:
            raw *= 1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0)
        return raw


class ProbabilisticFailure:
    """A :data:`FailureHook` failing each attempt with fixed probability.

    Failures strike midway through the transfer at ``fraction`` of the
    estimated cost.  Seeded, so a chaos run replays bit-identically.
    """

    def __init__(self, probability: float, seed: int = 0,
                 fraction: float = 0.5) -> None:
        if not (0.0 <= probability <= 1.0):
            raise ConfigurationError("failure probability must be in [0, 1]")
        if not (0.0 <= fraction <= 1.0):
            raise ConfigurationError("failure fraction must be in [0, 1]")
        self.probability = probability
        self.fraction = fraction
        self.rng = random.Random(seed)

    def __call__(self, action: "MigrationAction",
                 attempt: int) -> Optional[float]:
        if self.rng.random() < self.probability:
            return self.fraction
        return None


class ScheduledFailure:
    """A :data:`FailureHook` failing exact ``(nf_name, attempt)`` pairs.

    ``plan`` maps ``(nf_name, attempt_number)`` to the transfer fraction
    at which that attempt dies — the deterministic tool for tests that
    pin down one mid-transfer failure followed by a clean retry.
    """

    def __init__(self, plan: Dict[Tuple[str, int], float]) -> None:
        self.plan = dict(plan)
        self.triggered: List[Tuple[str, int]] = []

    def __call__(self, action: "MigrationAction",
                 attempt: int) -> Optional[float]:
        fraction = self.plan.get((action.nf_name, attempt))
        if fraction is not None:
            self.triggered.append((action.nf_name, attempt))
        return fraction


@dataclass
class MigrationRecord:
    """What one migration attempt looked like."""

    nf_name: str
    started_s: float
    completed_s: float
    cost: MigrationCost
    buffered_packets: int
    #: ``succeeded`` | ``rolled_back`` (will be retried) | ``aborted``
    #: (retries exhausted; the plan stops here).
    outcome: str = OUTCOME_SUCCEEDED
    #: 1-based attempt number for this action.
    attempt: int = 1
    #: Why a non-succeeded attempt failed (``injected-failure``,
    #: ``timeout``, ``drain-timeout``).
    reason: Optional[str] = None


@dataclass
class PlanOutcome:
    """Terminal result of one :meth:`MigrationExecutor.apply` call."""

    #: ``succeeded`` (every action landed) or ``aborted``.
    status: str
    started_s: float
    completed_s: float
    plan_size: int
    actions_completed: int
    #: Total attempts across all actions, including rolled-back ones.
    attempts: int
    #: The action that exhausted its retries, when aborted.
    failed_nf: Optional[str] = None
    reason: Optional[str] = None
    #: Per-attempt records, in execution order.
    records: List[MigrationRecord] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Whether every action of the plan completed."""
        return self.status == OUTCOME_SUCCEEDED

    @property
    def rolled_back_nfs(self) -> List[str]:
        """NFs with at least one rolled-back or aborted attempt."""
        return sorted({r.nf_name for r in self.records
                       if r.outcome != OUTCOME_SUCCEEDED})


#: Poll interval while waiting for an in-flight packet to drain.
_DRAIN_POLL_S = usec(5.0)

#: Default bound on the in-flight drain wait; a station that stays busy
#: past this records a ``drain-timeout`` failure instead of spinning.
DEFAULT_DRAIN_TIMEOUT_S = 0.01


class _PlanRun:
    """Mutable bookkeeping for one in-flight plan."""

    def __init__(self, plan: "MigrationPlan", offered_bps: ThroughputSpec,
                 started_s: float,
                 on_outcome: Optional[Callable[[PlanOutcome], None]]) -> None:
        self.plan = plan
        self.offered_bps = offered_bps
        self.started_s = started_s
        self.on_outcome = on_outcome
        self.attempts = 0
        self.completed = 0
        self.records: List[MigrationRecord] = []


class MigrationExecutor:
    """Executes plans against one (server, networks, engine) triple.

    ``network`` is a single chain's live network, or one per chain of a
    server hosting co-located chains: an action names its NF, and NF
    names are unique across the server, so the name alone finds the
    station to move.  A multi-chain plan
    (:class:`repro.multichain.MultiChainPlan`) executes like a
    single-chain one.
    """

    def __init__(self, server: Server,
                 network: Union[ChainNetwork, Sequence[ChainNetwork]],
                 engine: Engine,
                 cost_model: MigrationCostModel = MigrationCostModel(),
                 active_flows: int = 0,
                 paced_replay_rate_bps: Optional[float] = None,
                 retry: RetryPolicy = RetryPolicy(),
                 failure_hook: Optional[FailureHook] = None,
                 action_timeout_s: Optional[float] = None,
                 drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
                 retry_seed: int = 23) -> None:
        if action_timeout_s is not None and action_timeout_s <= 0:
            raise ConfigurationError("action timeout must be positive")
        if drain_timeout_s <= 0:
            raise ConfigurationError("drain timeout must be positive")
        self.server = server
        networks = ((network,) if isinstance(network, ChainNetwork)
                    else network)
        self._stations = {name: station for chain in networks
                          for name, station in chain.stations.items()}
        self.engine = engine
        self.cost_model = cost_model
        self.active_flows = active_flows
        #: When set, resumed stations replay their pause buffer at this
        #: bit rate instead of instantly — prevents the post-migration
        #: burst from overflowing downstream queues after long pauses
        #: (see NFStation.resume).
        self.paced_replay_rate_bps = paced_replay_rate_bps
        self.retry = retry
        self.failure_hook = failure_hook
        self.action_timeout_s = action_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self._retry_rng = random.Random(retry_seed)
        self.records: List[MigrationRecord] = []
        self.outcomes: List[PlanOutcome] = []
        self._busy = False

    @property
    def busy(self) -> bool:
        """Whether a plan is currently executing."""
        return self._busy

    @property
    def successes(self) -> List[MigrationRecord]:
        """Records of attempts that actually moved an NF."""
        return [r for r in self.records if r.outcome == OUTCOME_SUCCEEDED]

    def apply(self, plan: "MigrationPlan", offered_bps: ThroughputSpec,
              on_outcome: Optional[Callable[[PlanOutcome], None]] = None
              ) -> None:
        """Start executing ``plan``; returns immediately (event-driven).

        ``offered_bps`` is the controller's current load estimate, used
        to refresh device demand after each move.  ``on_outcome`` fires
        on every terminal outcome, success or abort, with the
        :class:`PlanOutcome`.
        """
        if self._busy:
            raise MigrationError("executor is already running a plan")
        plan.validate()
        run = _PlanRun(plan, offered_bps, self.engine.now_s, on_outcome)
        if plan.is_noop:
            self._complete(run, OUTCOME_SUCCEEDED)
            return
        self._busy = True
        self._run_actions(run, list(plan.actions))

    # -- internal, event-driven pipeline -----------------------------------

    def _run_actions(self, run: _PlanRun,
                     remaining: "List[MigrationAction]") -> None:
        if not remaining:
            self._complete(run, OUTCOME_SUCCEEDED)
            return
        self._start_attempt(run, remaining, attempt=1)

    def _start_attempt(self, run: _PlanRun,
                       remaining: "List[MigrationAction]",
                       attempt: int) -> None:
        action = remaining[0]
        station = self._stations.get(action.nf_name)
        if station is None:
            raise MigrationError(f"no station for NF {action.nf_name!r}")
        if station.device.kind is not action.source:
            raise MigrationError(
                f"NF {action.nf_name!r} is on {station.device.kind.value}, "
                f"plan expects {action.source.value}")
        run.attempts += 1
        started = self.engine.now_s
        station.pause()
        cost = self.cost_model.estimate(
            station.profile, self.server.pcie,
            active_flows=self.active_flows,
            buffered_packets=station.buffered)
        deadline = (None if self.action_timeout_s is None
                    else started + self.action_timeout_s)
        ctx = (action, station, started, cost, remaining, attempt, deadline)
        fraction = (self.failure_hook(action, attempt)
                    if self.failure_hook is not None else None)
        if fraction is not None:
            elapsed = cost.total_s * min(max(fraction, 0.0), 1.0)
            self.engine.after(
                elapsed,
                lambda: self._fail_attempt(run, ctx, "injected-failure"),
                control=True)
            return
        if deadline is not None and started + cost.total_s > deadline:
            self.engine.after(
                deadline - started,
                lambda: self._fail_attempt(run, ctx, "timeout"),
                control=True)
            return
        self.engine.after(
            cost.total_s,
            lambda: self._finish_attempt(run, ctx, drain_started=None),
            control=True)

    def _finish_attempt(self, run: _PlanRun, ctx,
                        drain_started: Optional[float]) -> None:
        action, station, started, cost, remaining, attempt, deadline = ctx
        if station.busy:
            # In-flight packet still draining on the old device; poll,
            # but never unboundedly — a station that stays busy past the
            # drain window (or the action deadline) fails the attempt.
            now = self.engine.now_s
            if drain_started is None:
                drain_started = now
            if deadline is not None and now + _DRAIN_POLL_S > deadline:
                self._fail_attempt(run, ctx, "timeout")
                return
            if now - drain_started + _DRAIN_POLL_S > self.drain_timeout_s:
                self._fail_attempt(run, ctx, "drain-timeout")
                return
            self.engine.after(
                _DRAIN_POLL_S,
                lambda: self._finish_attempt(run, ctx, drain_started),
                control=True)
            return
        self.server.apply_move(action.nf_name, action.target)
        station.rebind(self.server.device(action.target))
        buffered = station.buffered
        station.resume(self.paced_replay_rate_bps)
        self.server.refresh_demand(run.offered_bps)
        self._record(run, MigrationRecord(
            nf_name=action.nf_name,
            started_s=started,
            completed_s=self.engine.now_s,
            cost=cost,
            buffered_packets=buffered,
            outcome=OUTCOME_SUCCEEDED,
            attempt=attempt))
        run.completed += 1
        self._run_actions(run, remaining[1:])

    def _fail_attempt(self, run: _PlanRun, ctx, reason: str) -> None:
        """Roll the attempt back, then retry or abort the plan.

        The transfer never committed, so the NF never left its source
        device: rollback re-binds the station to where it already lives
        (a fresh queue on the source device), replays the pause buffer
        loss-free, and refreshes demand so utilisation reflects the
        unchanged placement.
        """
        action, station, started, cost, remaining, attempt, __ = ctx
        buffered = station.buffered
        if not station.busy:
            # Re-bind to the source device (rebind requires a drained
            # server; a drain-timeout rollback keeps the old binding,
            # which is already the source).
            station.rebind(self.server.device(action.source))
        station.resume(self.paced_replay_rate_bps)
        self.server.refresh_demand(run.offered_bps)
        final = attempt >= self.retry.max_attempts
        self._record(run, MigrationRecord(
            nf_name=action.nf_name,
            started_s=started,
            completed_s=self.engine.now_s,
            cost=cost,
            buffered_packets=buffered,
            outcome=OUTCOME_ABORTED if final else OUTCOME_ROLLED_BACK,
            attempt=attempt,
            reason=reason))
        if final:
            self._complete(run, OUTCOME_ABORTED,
                           failed_nf=action.nf_name, reason=reason)
            return
        delay = self.retry.delay_s(attempt, self._retry_rng)
        self.engine.after(
            delay,
            lambda: self._start_attempt(run, remaining, attempt + 1),
            control=True)

    def _record(self, run: _PlanRun, record: MigrationRecord) -> None:
        run.records.append(record)
        self.records.append(record)

    def _complete(self, run: _PlanRun, status: str,
                  failed_nf: Optional[str] = None,
                  reason: Optional[str] = None) -> None:
        self._busy = False
        outcome = PlanOutcome(
            status=status,
            started_s=run.started_s,
            completed_s=self.engine.now_s,
            plan_size=len(run.plan.actions),
            actions_completed=run.completed,
            attempts=run.attempts,
            failed_nf=failed_nf,
            reason=reason,
            records=list(run.records))
        self.outcomes.append(outcome)
        if run.on_outcome is not None:
            run.on_outcome(outcome)
