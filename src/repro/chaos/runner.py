"""Chaos runner: N randomized scenarios, zero tolerated violations.

Each run is a :class:`~repro.soak.fuzzer.SoakCase` derived from the
runner's :class:`~repro.chaos.schedule.ChaosConfig` and the run seed
(:meth:`ChaosRunner.case_for`): the Figure 1 chain under a seeded
random traffic spike, the fault-tolerant
:class:`~repro.core.operator.HardenedController` in charge
(stale-telemetry suppression, per-action timeouts, retry/rollback, and
a probabilistic mid-transfer migration-failure hook), and a seeded
:class:`~repro.chaos.schedule.ChaosSchedule` of crashes, brownouts,
PCIe flaps, and telemetry dropouts.  The soak wiring
(:class:`~repro.soak.scenario.CaseScenario`) builds the case; the run
goes to full drain and its end state is checked against the
:mod:`~repro.chaos.invariants`.  ``python -m repro chaos`` drives it
from the command line.

With ``ChaosConfig(resilient=True)`` a
:class:`~repro.resilience.ResilientController` is in charge instead
and the resilience invariants are checked too; the schedule may then
also draw permanent SmartNIC deaths (``max_device_kills``) and
sustained overload windows (``max_overload_windows``, realised by
overlaying the traffic profile).

Chaos checks the drained end state only; the online
:class:`~repro.soak.invariants.InvariantEngine` belongs to soak
campaigns.

Determinism: scenario ``i`` depends only on ``seed + i``, so any
violating run replays exactly from its reported seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..exec.campaign import Campaign, RunRequest, register_campaign
from ..exec.driver import run_campaign
from ..exec.errinfo import exception_payload
from ..exec.scenario import seed_for
from ..harness.scenarios import figure1
from ..migration.executor import OUTCOME_SUCCEEDED
from ..soak.fuzzer import SoakCase
from ..soak.scenario import CaseScenario
from ..units import gbps
from .invariants import (Violation, check_invariants,
                         check_resilience_invariants)
from .schedule import ChaosConfig, ChaosSchedule

#: Packet size used by chaos scenarios (larger than the paper's 256 B
#: sweep point to keep the event count per scenario moderate).
_PACKET_BYTES = 512


@dataclass
class ChaosRunResult:
    """Everything one randomized scenario produced."""

    seed: int
    schedule: ChaosSchedule
    violations: List[Violation]
    injected: int
    delivered: int
    dropped: int
    fault_losses: int
    migrations: int
    attempts: int
    plans_aborted: int
    stale_ticks: int
    #: Resilience accounting (zero when the run is not resilient).
    shed: int = 0
    protected_shed: int = 0
    recoveries: int = 0
    abandoned: int = 0

    @property
    def ok(self) -> bool:
        """Whether the scenario upheld every invariant."""
        return not self.violations

    @classmethod
    def from_scenario(cls, scenario: CaseScenario,
                      schedule: ChaosSchedule) -> "ChaosRunResult":
        """Aggregate a drained run and check every end-state invariant."""
        scenario.check_collectable()
        sim = scenario.sim
        hardened = scenario.hardened
        resilient = scenario.resilient
        violations = check_invariants(sim.network, sim.server,
                                      hardened.executor)
        if resilient is not None:
            violations.extend(check_resilience_invariants(
                resilient,
                resilient.config.degradation.max_shed_fraction))
        records = hardened.executor.records if hardened.executor else []
        outcomes = hardened.executor.outcomes if hardened.executor else []
        return cls(
            seed=schedule.seed,
            schedule=schedule,
            violations=violations,
            injected=scenario.result.injected,
            delivered=len(sim.network.delivered),
            dropped=len(sim.network.dropped),
            fault_losses=scenario.injector.total_lost,
            migrations=len([r for r in records
                            if r.outcome == OUTCOME_SUCCEEDED]),
            attempts=len(records),
            plans_aborted=len([o for o in outcomes if not o.succeeded]),
            stale_ticks=hardened.stale_ticks,
            shed=resilient.shedder.shed_packets if resilient else 0,
            protected_shed=resilient.shedder.protected_shed_packets()
            if resilient else 0,
            recoveries=len(resilient.recoveries) if resilient else 0,
            abandoned=resilient.abandoned_packets if resilient else 0)

    @classmethod
    def crashed(cls, schedule: ChaosSchedule, detail: str,
                data: Optional[Dict[str, object]] = None
                ) -> "ChaosRunResult":
        """The zeroed result of a run that never finished.

        Its only content is one ``scenario-error`` violation, whether
        the scenario raised in-process or its worker died.
        """
        return cls(
            seed=schedule.seed, schedule=schedule,
            violations=[Violation("scenario-error", detail, data=data)],
            injected=0, delivered=0, dropped=0, fault_losses=0,
            migrations=0, attempts=0, plans_aborted=0, stale_ticks=0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form for journal records.

        Every field round-trips bit-exact (ints, and floats via JSON's
        repr-based serialization), so a report merged from replayed
        records renders identically to the uninterrupted one.
        """
        return {
            "seed": self.seed,
            "schedule": self.schedule.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "injected": self.injected,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "fault_losses": self.fault_losses,
            "migrations": self.migrations,
            "attempts": self.attempts,
            "plans_aborted": self.plans_aborted,
            "stale_ticks": self.stale_ticks,
            "shed": self.shed,
            "protected_shed": self.protected_shed,
            "recoveries": self.recoveries,
            "abandoned": self.abandoned,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosRunResult":
        """Inverse of :meth:`to_dict` (journal replay)."""
        return cls(
            seed=int(data["seed"]),
            schedule=ChaosSchedule.from_dict(data["schedule"]),
            violations=[Violation.from_dict(v)
                        for v in data["violations"]],
            injected=int(data["injected"]),
            delivered=int(data["delivered"]),
            dropped=int(data["dropped"]),
            fault_losses=int(data["fault_losses"]),
            migrations=int(data["migrations"]),
            attempts=int(data["attempts"]),
            plans_aborted=int(data["plans_aborted"]),
            stale_ticks=int(data["stale_ticks"]),
            shed=int(data["shed"]),
            protected_shed=int(data["protected_shed"]),
            recoveries=int(data["recoveries"]),
            abandoned=int(data["abandoned"]))


@dataclass
class ChaosReport:
    """Aggregated outcome of a chaos campaign."""

    results: List[ChaosRunResult] = field(default_factory=list)

    @classmethod
    def from_payloads(cls, payloads: List[Dict[str, object]]
                      ) -> "ChaosReport":
        """Merge a chaos campaign's payloads (in index order)."""
        return cls(results=[ChaosRunResult.from_dict(payload)
                            for payload in payloads])

    @property
    def runs(self) -> int:
        """Number of scenarios in the campaign."""
        return len(self.results)

    @property
    def total_violations(self) -> int:
        """Invariant violations summed over every scenario."""
        return sum(len(r.violations) for r in self.results)

    @property
    def ok(self) -> bool:
        """Whether every scenario upheld every invariant."""
        return self.total_violations == 0

    def render(self) -> str:
        """A per-run summary plus any violations, for the CLI."""
        lines = [f"{'seed':>6} {'faults':>6} {'inj':>7} {'dlv':>7} "
                 f"{'drop':>6} {'shed':>6} {'migr':>5} {'att':>4} "
                 f"{'abrt':>4} {'stale':>5} {'recov':>5}  status"]
        for r in self.results:
            status = "ok" if r.ok else f"{len(r.violations)} VIOLATIONS"
            lines.append(
                f"{r.seed:>6} {len(r.schedule.faults):>6} {r.injected:>7} "
                f"{r.delivered:>7} {r.dropped:>6} {r.shed:>6} "
                f"{r.migrations:>5} {r.attempts:>4} {r.plans_aborted:>4} "
                f"{r.stale_ticks:>5} {r.recoveries:>5}  {status}")
        for r in self.results:
            for violation in r.violations:
                lines.append(f"seed {r.seed}: {violation}")
        verdict = ("all invariants held" if self.ok
                   else f"{self.total_violations} invariant violations")
        lines.append(f"{self.runs} chaos scenarios: {verdict}")
        return "\n".join(lines)


class ChaosRunner:
    """``runs`` randomized scenarios under one :class:`ChaosConfig`.

    :meth:`run` is the serial convenience; journals, resume, workers,
    and supervision come from handing :class:`ChaosCampaign` to
    :func:`repro.exec.run_campaign` directly.
    """

    def __init__(self, runs: int = 20, seed: int = 7,
                 config: Optional[ChaosConfig] = None) -> None:
        if runs < 1:
            raise ConfigurationError("need at least one chaos run")
        self.runs = runs
        self.seed = seed
        self.config = config or ChaosConfig()

    def run(self) -> ChaosReport:
        """Run every scenario serially; never raises on violations."""
        outcome = run_campaign(ChaosCampaign(self))
        return ChaosReport.from_payloads(outcome.payloads)

    def run_one(self, run_seed: int) -> ChaosRunResult:
        """One fully seeded scenario: build, prepare, run, check.

        A scenario that *raises* is itself recorded as a violation
        (``scenario-error``) instead of aborting the campaign — a chaos
        harness that crashes on the bug it was built to surface would
        be reporting exit code luck, not invariants.
        """
        schedule = self._schedule(run_seed)
        try:
            scenario = self.build_scenario(run_seed, schedule)
            try:
                scenario.prepare()
                scenario.run()
                return ChaosRunResult.from_scenario(scenario, schedule)
            finally:
                scenario.release()
        # A faithfully-reporting top-level boundary: the crash becomes a
        # recorded violation, never a swallowed one.
        except Exception as exc:  # repro: noqa[EXC402]
            return ChaosRunResult.crashed(
                schedule, f"scenario raised {type(exc).__name__}: {exc}",
                exception_payload(exc))

    def _schedule(self, run_seed: int) -> ChaosSchedule:
        return ChaosSchedule.generate(
            [nf.name for nf in figure1().chain], self.config,
            seed=run_seed)

    def case_for(self, run_seed: int,
                 schedule: Optional[ChaosSchedule] = None) -> SoakCase:
        """The :class:`SoakCase` that chaos run ``run_seed`` is.

        RNG-compatible with the chaos draw: the spike's base and peak
        rates are the first two ``Random(run_seed)`` uniforms, the
        packet size and spike shape are the chaos constants, and the
        faults are ``schedule`` (by default the seeded draw).
        """
        if schedule is None:
            schedule = self._schedule(run_seed)
        rng = random.Random(run_seed)
        base_bps = gbps(rng.uniform(1.0, 1.4))
        peak_bps = gbps(rng.uniform(1.6, 2.1))
        return SoakCase(
            seed=run_seed, duration_s=self.config.duration_s,
            packet_bytes=_PACKET_BYTES, base_bps=base_bps,
            peak_bps=peak_bps, resilient=self.config.resilient,
            migration_failure_rate=self.config.migration_failure_rate,
            faults=tuple(schedule.faults))

    def build_scenario(self, run_seed: int,
                       schedule: Optional[ChaosSchedule] = None
                       ) -> CaseScenario:
        """Wire one seeded scenario, faults applied but not yet run."""
        return CaseScenario.wire(self.case_for(run_seed, schedule))


@register_campaign
class ChaosCampaign(Campaign):
    """The chaos campaign grid: ``runs`` seeded scenarios, one config.

    Payloads are :meth:`ChaosRunResult.to_dict` records — exactly what
    the journal has always stored, so pre-existing chaos journals keep
    resuming.  Workers rebuild the campaign (and its runner) from the
    ``runs``/``seed``/``config`` spec alone.
    """

    kind = "chaos"
    description = ("seeded fault schedules against the hardened (or "
                   "resilient) controller with invariant checks")

    def __init__(self, runner: ChaosRunner) -> None:
        self.runner = runner

    def fingerprint(self) -> Dict[str, object]:
        """Campaign identity: runs, base seed, and the full config."""
        return {"runs": self.runner.runs, "seed": self.runner.seed,
                "config": self.runner.config.to_dict()}

    def spec(self) -> Dict[str, object]:
        """Everything a worker needs to rebuild this campaign."""
        return self.fingerprint()

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "ChaosCampaign":
        """Rebuild from :meth:`spec` (worker-side construction)."""
        return cls(ChaosRunner(
            runs=int(spec["runs"]), seed=int(spec["seed"]),
            config=ChaosConfig.from_dict(spec["config"])))

    def requests(self) -> List[RunRequest]:
        """Scenario ``i`` runs at ``seed_for(seed, i)`` — ``seed + i``."""
        return [RunRequest(index=index,
                           seed=seed_for(self.runner.seed, index))
                for index in range(self.runner.runs)]

    def run_request(self, request: RunRequest) -> Dict[str, object]:
        """One scenario; crashes inside become scenario-error results."""
        return self.runner.run_one(request.seed).to_dict()

    def error_payload(self, request: RunRequest, error: str,
                      details: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
        """Crash isolation: a dead worker's run is itself a violation."""
        return ChaosRunResult.crashed(
            self.runner._schedule(request.seed),
            f"worker failed: {error}", details).to_dict()

    def end_record(self, payloads: List[Dict[str, object]]
                   ) -> Dict[str, object]:
        """Campaign totals, matching the established journal schema."""
        return {"runs": self.runner.runs,
                "violations": sum(len(payload["violations"])
                                  for payload in payloads)}
