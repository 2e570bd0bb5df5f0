"""The resilient control plane: detection -> recovery -> degradation.

:class:`ResilientController` wraps a
:class:`~repro.core.operator.HardenedController` and closes the loop
the paper leaves open:

1. **Watch** — every control pulse feeds the per-device / per-NF
   :class:`~repro.resilience.health.HealthTracker` from *live* progress
   counters (never the telemetry sample, which fault injection can
   freeze);
2. **Recover** — a device declared FAILED gets an evacuation plan
   (:func:`~repro.resilience.recovery.plan_evacuation`) executed
   through the *same* fault-tolerant executor the PAM loop uses (one
   migration pipeline, one busy flag, one record), re-planned on abort
   up to a cap, then abandoned with explicit drop accounting;
3. **Degrade** — the ladder compares true offered load (the shedder's
   own counters) against achievable capacity — the best feasible
   placement while both devices live, the survivor's post-evacuation
   capacity while one is dead — and sheds the lowest priority classes
   at ingress so queues stay bounded;
4. **Delegate** — while every device is healthy the inner hardened PAM
   loop runs untouched; while a device is suspect or failed it is
   suppressed (no push-aside onto, or pull-back onto, a corpse).

The controller keeps itself alive past the workload horizon with a
self-scheduled control pulse whenever a recovery is in flight or a
device looks unhealthy, so "recovery completes or degrades — never
hangs" holds even for failures injected near the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..chain.nf import DeviceKind
from ..core.operator import HardenedController
from ..errors import MigrationError
from ..migration.executor import (OUTCOME_SUCCEEDED, MigrationExecutor,
                                  PlanOutcome)
from ..sim.engine import Engine
from ..sim.network import ChainNetwork
from ..sim.nfinstance import NFStation
from ..sim.runner import TickContext
from .degradation import (DEFAULT_PRIORITY_CLASSES, DegradationConfig,
                          DegradationLadder, IngressShedder, PriorityClass)
from .health import HealthConfig, HealthState, HealthTracker
from .recovery import (RecoveryConfig, RecoveryOutcome, StandbyAwareCostModel,
                       StandbyPool, plan_evacuation, reachable_capacity_bps)

#: EMA weight for the true-offered-rate estimator (per control pulse).
_OFFERED_EMA_ALPHA = 0.5


def device_entity(kind: DeviceKind) -> str:
    """Health-tracker entity name for a device."""
    return f"device:{kind.value}"


def nf_entity(name: str) -> str:
    """Health-tracker entity name for an NF."""
    return f"nf:{name}"


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the resilient layer needs beyond the inner config."""

    health: HealthConfig = field(default_factory=HealthConfig)
    degradation: DegradationConfig = field(default_factory=DegradationConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    classes: Tuple[PriorityClass, ...] = DEFAULT_PRIORITY_CLASSES
    #: Device whose NFs get warm replicas within the standby budget
    #: (``None`` disables pre-provisioning even with a budget).
    standby_protect: Optional[DeviceKind] = DeviceKind.SMARTNIC
    #: Explicit replica preference order for the standby pool (what a
    #: reliability policy decided); ``None`` keeps the pool's default
    #: greedy-by-state-size choice.
    standby_prewarmed: Optional[Tuple[str, ...]] = None
    #: Control pulse period for the self-scheduled continuation loop
    #: (matches the monitor period of the scenarios that use it).
    pulse_period_s: float = 0.002


class ResilientController:
    """Health FSM + evacuation + degradation ladder around PAM."""

    def __init__(self, inner: Optional[HardenedController] = None,
                 config: ResilienceConfig = ResilienceConfig()) -> None:
        self.inner = inner or HardenedController()
        self.config = config
        self.health = HealthTracker(config.health)
        self.shedder = IngressShedder(config.classes,
                                      seed=config.degradation.seed)
        self.ladder = DegradationLadder(self.shedder, config.degradation)
        self.recoveries: List[RecoveryOutcome] = []
        self._active: Dict[DeviceKind, RecoveryOutcome] = {}
        self.standby: Optional[StandbyPool] = None
        self._installed = False
        self._engine: Optional[Engine] = None
        self._network: Optional[ChainNetwork] = None
        self._context: Optional[TickContext] = None
        self._offered_ema_bps = 0.0
        self._last_pulse_s: Optional[float] = None
        self._last_offered_bytes = 0
        self._pulse_scheduled = False
        # Membership-robust device progress: cumulative served deltas
        # per device, fed from per-station watermarks.  A raw sum over
        # currently-hosted stations would *drop* when an NF migrates
        # away and read as a stall on a perfectly healthy device.
        self._device_progress: Dict[DeviceKind, int] = {
            DeviceKind.SMARTNIC: 0, DeviceKind.CPU: 0}
        self._served_seen: Dict[str, int] = {}
        #: Packets dropped while abandoning an unfinishable recovery.
        self.abandoned_packets = 0

    # -- runner integration ------------------------------------------------

    @property
    def migrations(self):
        """Completed migrations (PAM and evacuation share one executor)."""
        return self.inner.migrations

    @property
    def executor(self) -> Optional[MigrationExecutor]:
        """The shared executor (``None`` before the first tick)."""
        return self.inner.executor

    @property
    def network(self) -> Optional[ChainNetwork]:
        """The network under control (``None`` before the first tick)."""
        return self._network

    @property
    def server(self):
        """The server under control (``None`` before the first tick)."""
        return self._context.server if self._context is not None else None

    def on_tick(self, context: TickContext) -> None:
        """One resilient control cycle (the runner's monitor tick)."""
        self._context = context
        self._install(context)
        self._pulse(context.now_s, context)

    # -- setup ---------------------------------------------------------------

    def _install(self, context: TickContext) -> None:
        if self._installed:
            return
        self._installed = True
        self._engine = context.engine
        self._network = context.network
        self.shedder.install(context.network)
        protect = self.config.standby_protect
        budget = self.config.recovery.standby_budget_bytes
        if protect is not None and budget > 0:
            self.standby = StandbyPool(context.server.placement, protect,
                                       budget,
                                       prewarmed=self.config.standby_prewarmed)
            # One executor for PAM and recovery: warm replicas make the
            # inner loop's ordinary migrations of those NFs cheap too,
            # which is exactly what resident state means.
            self.inner.cost_model = StandbyAwareCostModel(
                prewarmed=self.standby.prewarmed)

    # -- the pulse (tick-driven and self-scheduled) --------------------------

    def _pulse(self, now_s: float, context: TickContext) -> None:
        self._update_offered_estimate(now_s)
        self._observe_health(now_s)
        self._drive_recovery(now_s, context)
        self._drive_degradation(now_s)
        if self._healthy_devices():
            self.inner.on_tick(context)
        self._maybe_continue(now_s)

    def _self_pulse(self) -> None:
        """Continuation pulse past the runner's tick horizon."""
        self._pulse_scheduled = False
        if self._engine is None or self._context is None:
            return
        self._pulse(self._engine.now_s, self._context)

    def _maybe_continue(self, now_s: float) -> None:
        """Keep pulsing while a failure is being detected or recovered.

        The condition must eventually go false (recoveries reach a
        terminal status, suspicion resolves to FAILED or clears), or the
        run-to-exhaustion drain would never finish.
        """
        if self._pulse_scheduled or self._engine is None:
            return
        if not self._needs_continuation():
            return
        self._pulse_scheduled = True
        self._engine.after(self.config.pulse_period_s, self._self_pulse,
                           control=True)

    def _needs_continuation(self) -> bool:
        if any(not r.terminal for r in self.recoveries):
            return True
        for kind in (DeviceKind.SMARTNIC, DeviceKind.CPU):
            state = self.health.state_of(device_entity(kind))
            if state is HealthState.SUSPECT:
                return True
            if state is HealthState.FAILED and kind not in self._active:
                return True
        return False

    # -- offered-load estimation ---------------------------------------------

    def _update_offered_estimate(self, now_s: float) -> None:
        """EMA of the *true* offered rate from the shedder's counters.

        The monitor's estimate reflects admitted load (shedding happens
        upstream of its byte counter, by design); the ladder must see
        what the world offers, shed traffic included.
        """
        offered = self.shedder.offered_bytes
        if self._last_pulse_s is None:
            self._last_pulse_s = now_s
            self._last_offered_bytes = offered
            return
        window_s = now_s - self._last_pulse_s
        if window_s <= 0:
            return
        rate = (offered - self._last_offered_bytes) * 8.0 / window_s
        self._offered_ema_bps += _OFFERED_EMA_ALPHA * \
            (rate - self._offered_ema_bps)
        self._last_pulse_s = now_s
        self._last_offered_bytes = offered

    @property
    def true_offered_bps(self) -> float:
        """Current estimate of offered load including shed traffic."""
        return self._offered_ema_bps

    # -- health observation ----------------------------------------------------

    def _stations_on(self, kind: DeviceKind) -> List[NFStation]:
        assert self._network is not None
        device = self._context.server.device(kind) \
            if self._context is not None else None
        return [station for station in self._network.stations.values()
                if station.device is device]

    def _observe_health(self, now_s: float) -> None:
        network = self._network
        assert network is not None and self._context is not None
        server = self._context.server
        # Devices: progress is the cumulative serve count of whatever
        # stations the device hosted at each pulse (per-station deltas
        # against watermarks, so migrating an NF away can never read as
        # a stall); reference is live wire arrivals.  A device hosting
        # nothing (or only paused stations mid-evacuation) is exempt:
        # its state freezes — which is how an evacuated corpse stays
        # FAILED.
        arrived = network.arrived_bytes
        for kind in (DeviceKind.SMARTNIC, DeviceKind.CPU):
            stations = self._stations_on(kind)
            active = [s for s in stations if not s.paused]
            for station in stations:
                name = station.profile.name
                delta = station.served_packets - \
                    self._served_seen.get(name, 0)
                if delta > 0:
                    self._device_progress[kind] += delta
                    self._served_seen[name] = station.served_packets
            self.health.observe(device_entity(kind),
                                self._device_progress[kind], arrived,
                                now_s, exempt=not active)
        # NFs: reference is the *upstream* station's progress (the chain
        # head reads wire arrivals), so one dead NF does not defame the
        # starved NFs behind it.
        upstream = arrived
        for nf in network.chain:
            station = network.stations[nf.name]
            self.health.observe(nf_entity(nf.name), station.served_packets,
                                upstream, now_s,
                                exempt=station.paused
                                or station.device.is_failed)
            upstream = station.served_packets
        # Detection is watchdog-only on purpose: the control plane sees
        # dead silicon the way a real one does, as traffic stalling
        # against advancing arrivals.  (A device that dies while
        # carrying no traffic is found the moment traffic returns.)

    # -- degradation ---------------------------------------------------------

    def _capacity_bps(self) -> float:
        """Achievable capacity the ladder should admit against.

        While both devices live this is the best capacity the planner
        can reach from the *current* placement in one border move —
        PAM's migrations are the first rung of the ladder, so shedding
        starts only above what they can actually save (a rolling
        horizon: every migration that lands raises the reference).
        With a device down it is the survivor's post-evacuation
        capacity over every NF that can run there.
        """
        assert self._context is not None
        server = self._context.server
        # Watchdog knowledge only — the ladder must not act on platform
        # truth the health FSM has not yet established.
        failed = self._failed_devices()
        if not failed:
            return reachable_capacity_bps(server.placement)
        if len(failed) == 2:
            return 0.0
        survivor = failed[0].other()
        inverse = sum(1.0 / nf.capacity_on(survivor)
                      for nf in server.placement.chain
                      if nf.can_run_on(survivor))
        return float("inf") if inverse == 0 else 1.0 / inverse

    def _drive_degradation(self, now_s: float) -> None:
        self.ladder.update(self._offered_ema_bps, self._capacity_bps(),
                           now_s)

    # -- recovery -----------------------------------------------------------

    def _failed_devices(self) -> List[DeviceKind]:
        return [kind for kind in (DeviceKind.SMARTNIC, DeviceKind.CPU)
                if self.health.state_of(device_entity(kind))
                is HealthState.FAILED]

    def _healthy_devices(self) -> bool:
        """Whether the inner PAM loop may run this pulse.

        Suppressed while a recovery is in flight and also while a
        device is merely SUSPECT: a push-aside (or pull-back) decided
        from telemetry a dying device can no longer be trusted to
        produce would land NFs on a corpse.
        """
        if self._active and any(not r.terminal
                                for r in self._active.values()):
            return False
        for kind in (DeviceKind.SMARTNIC, DeviceKind.CPU):
            if self.health.state_of(device_entity(kind)) in (
                    HealthState.SUSPECT, HealthState.FAILED):
                return False
        return True

    def _drive_recovery(self, now_s: float, context: TickContext) -> None:
        for kind in self._failed_devices():
            recovery = self._active.get(kind)
            if recovery is None:
                recovery = RecoveryOutcome(device=kind, detected_s=now_s)
                self._active[kind] = recovery
                self.recoveries.append(recovery)
            if recovery.terminal:
                continue
            self._attempt_evacuation(recovery, now_s, context)

    def _attempt_evacuation(self, recovery: RecoveryOutcome, now_s: float,
                            context: TickContext) -> None:
        executor = self.inner.ensure_executor(context)
        if executor.busy:
            return  # a plan (PAM or a prior attempt) is still in flight
        planning = plan_evacuation(context.server.placement,
                                   context.offered_bps, recovery.device)
        recovery.unrecoverable = list(planning.unrecoverable)
        if planning.plan.is_noop:
            # Nothing (recoverable) left on the corpse: terminal.
            self._settle(recovery, now_s)
            return
        if recovery.attempts >= \
                self.config.recovery.max_attempts_per_device:
            self._abandon(recovery, now_s)
            return
        recovery.attempts += 1
        if recovery.started_s is None:
            recovery.started_s = now_s
        try:
            executor.apply(
                planning.plan, context.offered_bps,
                on_outcome=lambda outcome: self._on_evacuation_outcome(
                    recovery, outcome))
        except MigrationError:
            # The plan raced a data-plane change (a station moved under
            # us); the next pulse re-plans from the live placement.
            recovery.attempts -= 1

    def _on_evacuation_outcome(self, recovery: RecoveryOutcome,
                               outcome: PlanOutcome) -> None:
        for record in outcome.records:
            if record.outcome == OUTCOME_SUCCEEDED and \
                    record.nf_name not in recovery.evacuated:
                recovery.evacuated.append(record.nf_name)
        if outcome.succeeded:
            self._settle(recovery, outcome.completed_s)
        # On abort the next pulse re-plans the remainder (or abandons
        # once the attempt cap is hit); _maybe_continue keeps pulses
        # coming even past the tick horizon.

    def _settle(self, recovery: RecoveryOutcome, now_s: float) -> None:
        recovery.completed_s = now_s
        recovery.status = "degraded" if recovery.unrecoverable \
            else "completed"

    def _abandon(self, recovery: RecoveryOutcome, now_s: float) -> None:
        """Terminal failure of the recovery itself: stop losslessly-ish.

        The NFs still stranded on the corpse are pinned FAILED and their
        queued packets drained into the drop accounting — an explicit,
        bounded loss instead of an invisible forever-growing queue.
        """
        network = self._network
        assert network is not None and self._context is not None
        dead = self._context.server.device(recovery.device)
        for station in network.stations.values():
            if station.device is not dead:
                continue
            if station.paused:
                station.resume()
            drained = len(station.queue.drain())
            network.count_drops(station.profile.name, drained)
            self.abandoned_packets += drained
            self.health.force_failed(nf_entity(station.profile.name), now_s,
                                     "stranded on a dead device after "
                                     "evacuation attempts were exhausted")
        recovery.completed_s = now_s
        recovery.status = "abandoned"
