"""The one scenario wiring: a :class:`SoakCase` made runnable.

:meth:`CaseScenario.wire` builds everything a case describes — the
Figure 1 server, the case's spike with any overload windows overlaid,
the hardened (or resilient) controller stack, the runner, and the fault
injector with the case's faults applied.  It is driven entirely by the
case's explicit fields (duration, packet size, spike shape, policy,
failure rate, fault list), so an edited case (the shrinker's
candidates) replays exactly what it says.

Chaos runs are cases too: :meth:`repro.chaos.runner.ChaosRunner.case_for`
derives one from ``(ChaosConfig, seed)``, and the chaos runner checks
the drained end state of the wired case.  A :class:`SoakScenario` is
the same wiring with the :class:`~repro.soak.invariants.InvariantEngine`
attached before ``prepare()``, so invariants observe the run from the
first event.  A case with a planted bug applies its corruption in
``collect()`` iff a fault of the trigger kind is present — see
:class:`~repro.soak.fuzzer.PlantedBug`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..chaos.invariants import Violation
from ..chaos.schedule import ChaosConfig, ChaosFault, ChaosSchedule
from ..core.operator import HardenedController, HardeningConfig
from ..core.reverse import PullbackConfig
from ..errors import ConfigurationError
from ..exec.errinfo import exception_payload
from ..harness.scenarios import figure1
from ..migration.executor import (OUTCOME_SUCCEEDED, ProbabilisticFailure,
                                  RetryPolicy)
from ..resilience.controller import ResilienceConfig, ResilientController
from ..sim.faults import FaultInjector
from ..sim.runner import SimulationResult, SimulationRunner
from ..traffic.packet import FixedSize
from ..traffic.patterns import ProfiledArrivals, RateProfile, spike
from ..units import usec
from .fuzzer import BUG_CONSERVATION, BUG_PROTECTED_SHED, SoakCase
from .invariants import InvariantEngine

_MONITOR_PERIOD_S = 0.002


def _case_profile(case: SoakCase,
                  overloads: List[ChaosFault]) -> RateProfile:
    """The case's spike, overridden inside any overload windows."""
    base = spike(base_bps=case.base_bps, peak_bps=case.peak_bps,
                 start_s=case.spike_start_frac * case.duration_s,
                 duration_s=case.spike_frac * case.duration_s)
    if not overloads:
        return base

    def profile(t_s: float) -> float:
        rate = base(t_s)
        for window in overloads:
            if window.at_s <= t_s < window.at_s + window.duration_s:
                rate = max(rate, window.magnitude)
        return rate

    return profile


@dataclass
class CaseScenario:
    """One wired case: faults applied, not yet run.

    The ``prepare``/``run`` half of the :class:`repro.exec.Scenario`
    protocol.  How the end state is judged is the caller's: the chaos
    runner checks it once drained, a :class:`SoakScenario` watches it
    online.  Determinism tests build the *identical* seeded scenario
    a campaign would run twice and compare the two runs.
    """

    case: SoakCase
    sim: SimulationRunner
    hardened: HardenedController
    resilient: Optional[ResilientController]
    injector: FaultInjector
    #: Set by :meth:`run`; read when the end state is collected.
    result: Optional[SimulationResult] = None

    @classmethod
    def wire(cls, case: SoakCase,
             config: ResilienceConfig = ResilienceConfig()
             ) -> "CaseScenario":
        """Wire ``case``: server, workload, controllers, faults applied.

        ``config`` configures the resilient layer of a resilient case
        (the reliability campaign passes its plan's standby pool here);
        it is a property of the run, not of the case, so it stays out
        of the case's JSON form and every fingerprint.
        """
        server = figure1().build_server()
        overloads = [fault for fault in case.faults
                     if fault.kind == "overload"]
        generator = ProfiledArrivals(_case_profile(case, overloads),
                                     FixedSize(case.packet_bytes),
                                     duration_s=case.duration_s,
                                     seed=case.seed, jitter=False)
        hardened = HardenedController(
            config=HardeningConfig(
                cooldown_s=2 * _MONITOR_PERIOD_S,
                flap_damp_s=0.01,
                migration_budget=8,
                pullback=PullbackConfig(trigger_below=0.6, nic_target=0.9),
                telemetry_stale_s=1.5 * _MONITOR_PERIOD_S,
                action_timeout_s=0.01,
                retry=RetryPolicy(max_attempts=3,
                                  backoff_base_s=usec(200.0))),
            failure_hook=ProbabilisticFailure(
                case.migration_failure_rate, seed=case.seed))
        resilient: Optional[ResilientController] = None
        controller: object = hardened
        if case.resilient:
            resilient = ResilientController(hardened, config)
            controller = resilient
        sim = SimulationRunner(server, generator, controller,
                               monitor_period_s=_MONITOR_PERIOD_S)
        injector = FaultInjector(sim.network, sim.engine, seed=case.seed)
        # ChaosSchedule.apply maps fault kinds onto the injector; the
        # config carried here is only a validity shell — the fault list
        # is the case's own, never regenerated.
        schedule = ChaosSchedule(
            seed=case.seed,
            config=ChaosConfig(
                duration_s=case.duration_s,
                migration_failure_rate=case.migration_failure_rate,
                resilient=case.resilient),
            faults=list(case.faults))
        schedule.apply(injector)
        return cls(case=case, sim=sim, hardened=hardened,
                   resilient=resilient, injector=injector)

    def prepare(self) -> None:
        """Inject the seeded workload and arm the monitor (idempotent)."""
        self.sim.prepare()

    def run(self) -> SimulationResult:
        """Run the workload, then drain the engine to exhaustion.

        The drain matters: fault restores, retry backoffs, and packet
        events past the horizon must all land before the end state is
        inspected.
        """
        self.result = self.sim.run()
        self.sim.engine.run()
        return self.result

    def release(self) -> None:
        """Free the run's packets and pending events (idempotent)."""
        self.sim.release()

    def check_collectable(self) -> None:
        """Raise unless the run has finished and is not yet released."""
        if self.result is None:
            raise ConfigurationError("collect() before run()")
        if self.sim.released:
            raise ConfigurationError("collect() after release()")


@dataclass
class SoakScenario(CaseScenario):
    """A wired case with the online invariant engine watching it."""

    invariants: InvariantEngine = field(default_factory=InvariantEngine)

    def _apply_planted(self) -> None:
        """Corrupt the end state iff the planted bug's trigger fired."""
        planted = self.case.planted
        if planted is None:
            return
        triggered = any(fault.kind == planted.trigger_kind
                        for fault in self.case.faults)
        if not triggered:
            return
        if planted.bug == BUG_CONSERVATION:
            # Un-record one delivered packet: conservation now sees one
            # injected packet with no fate.
            if self.sim.network.delivered:
                self.sim.network.delivered.pop()
        elif planted.bug == BUG_PROTECTED_SHED:
            shedder = self.resilient.shedder
            for cls in shedder.classes:
                if not cls.sheddable:
                    shedder.counters[cls.name].shed_packets += 1
                    break

    def collect(self) -> Dict[str, object]:
        """Apply any planted corruption, finalize invariants, report."""
        self.check_collectable()
        self._apply_planted()
        violations = self.invariants.finalize()
        network = self.sim.network
        records = (self.hardened.executor.records
                   if self.hardened.executor else [])
        return {
            "seed": self.case.seed,
            "case": self.case.to_dict(),
            "violations": [v.to_dict() for v in violations],
            "injected": self.result.injected,
            "delivered": len(network.delivered),
            "dropped": network.dropped,
            "filtered": network.filtered,
            "shed": network.shed,
            "migrations": len([r for r in records
                               if r.outcome == OUTCOME_SUCCEEDED]),
            "recoveries": (len(self.resilient.recoveries)
                           if self.resilient else 0),
            "ticks": self.invariants.ticks_checked,
            "events": self.sim.engine.events_processed,
        }


def build_case_scenario(case: SoakCase,
                        config: ResilienceConfig = ResilienceConfig()
                        ) -> SoakScenario:
    """Wire one case and attach the invariant engine before ``prepare()``."""
    scenario = SoakScenario.wire(case, config)
    scenario.invariants.attach(scenario.sim, hardened=scenario.hardened,
                               resilient=scenario.resilient)
    return scenario


def error_case_payload(case: SoakCase,
                       violation: Violation) -> Dict[str, object]:
    """A zeroed payload for a case whose scenario never finished."""
    return {
        "seed": case.seed,
        "case": case.to_dict(),
        "violations": [violation.to_dict()],
        "injected": 0, "delivered": 0, "dropped": 0, "filtered": 0,
        "shed": 0, "migrations": 0, "recoveries": 0,
        "ticks": 0, "events": 0,
    }


def run_case(case: SoakCase) -> Dict[str, object]:
    """Build → prepare → run → collect; crashes become payloads.

    Like the chaos runner, a scenario that raises is itself a finding
    (``scenario-error``) — with the structured exception payload
    attached — never a campaign abort.
    """
    try:
        scenario = build_case_scenario(case)
        try:
            scenario.prepare()
            scenario.run()
            return scenario.collect()
        finally:
            scenario.release()
    # Faithfully-reporting top-level boundary: the crash becomes a
    # recorded violation carrying its own traceback summary.
    except Exception as exc:  # repro: noqa[EXC402]
        return error_case_payload(case, Violation(
            "scenario-error",
            f"scenario raised {type(exc).__name__}: {exc}",
            data=exception_payload(exc)))
