"""Resilience scenario runs as a :mod:`repro.exec` campaign.

The canned scenarios (device-kill, overload) are soak cases
(:mod:`repro.resilience.scenarios`).  This module turns them into a
campaign: ``runs`` repetitions at seeds ``seed_for(seed, i)``, each
wired by :func:`repro.soak.scenario.build_case_scenario` — the same
wiring the fuzzer and the shrinker run, with the online invariant
engine attached — and flattened into a JSON-clean payload holding
everything the CLI report prints: health transitions, recovery
latencies, per-class shed accounting, and the invariant verdict.
Payloads cross process boundaries and journal round-trips unchanged,
which is what makes ``--workers N`` and ``--journal``/
``--resume-journal`` work for resilience exactly as they do for chaos.

The run outcome (:func:`outcome_payload`), its zero
(:func:`error_outcome`) and its shared report lines are the one payload
shape of both fault campaigns: :mod:`repro.reliability.campaign` puts
its plan in front of the same outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..chaos.invariants import Violation
from ..errors import ConfigurationError
from ..exec.campaign import (InvariantCampaign, RunRequest,
                             register_campaign)
from ..soak.fuzzer import SoakCase
from ..soak.scenario import SoakScenario, build_case_scenario
from ..units import as_msec
from .controller import ResilienceConfig
from .scenarios import scenario_case


def outcome_payload(scenario: SoakScenario) -> Dict[str, Any]:
    """Flatten one finished resilient case run into its JSON outcome.

    The violations are the invariant engine's: it watched the run
    online and checks the drained end state when finalized.
    """
    scenario.check_collectable()
    result = scenario.result
    controller = scenario.resilient
    shedder = controller.shedder
    latency = result.latency
    recoveries = [
        {"device": r.device.value, "status": r.status,
         "attempts": r.attempts,
         "time_to_recover_s": r.time_to_recover_s,
         "evacuated": list(r.evacuated)}
        for r in controller.recoveries]
    classes = []
    for cls in shedder.classes:
        counters = shedder.counters[cls.name]
        offered = counters.offered_packets
        classes.append({
            "name": cls.name, "sheddable": cls.sheddable,
            "offered_packets": offered,
            "shed_packets": counters.shed_packets,
            "shed_fraction": (counters.shed_packets / offered
                              if offered else 0.0)})
    return {
        "final_placement": str(result.final_placement),
        "injected": result.injected,
        "delivered": result.delivered,
        "dropped": result.dropped,
        "shed": result.shed,
        "latency_mean_s": None if latency is None else latency.mean_s,
        "latency_p99_s": None if latency is None else latency.p99_s,
        "transitions": [
            {"at_s": t.at_s, "entity": t.entity,
             "previous": t.previous.value, "state": t.state.value,
             "reason": t.reason}
            for t in controller.health.transitions],
        "recoveries": recoveries,
        "downtime_s": next((r["time_to_recover_s"] for r in recoveries
                            if r["time_to_recover_s"] is not None), None),
        "degraded_time_s": controller.ladder.degraded_time_s,
        "level_changes": [list(change)
                          for change in controller.ladder.level_changes],
        "final_ladder_level": shedder.level,
        "shed_fraction": shedder.shed_fraction(),
        "protected_shed_packets": shedder.protected_shed_packets(),
        "abandoned_packets": controller.abandoned_packets,
        "classes": classes,
        "violations": [v.to_dict()
                       for v in scenario.invariants.finalize()],
    }


def run_outcome(case: SoakCase,
                config: ResilienceConfig = ResilienceConfig()
                ) -> Dict[str, Any]:
    """Wire, run and drain one resilient case; return its outcome."""
    scenario = build_case_scenario(case, config)
    try:
        scenario.prepare()
        scenario.run()
        return outcome_payload(scenario)
    finally:
        scenario.release()


def error_outcome(error: str, details: Optional[Dict[str, object]] = None
                  ) -> Dict[str, Any]:
    """The outcome of a run that never finished: zero, plus the error.

    Crash isolation: a dead worker's run is itself a violation.
    """
    return {
        "final_placement": "-", "injected": 0, "delivered": 0,
        "dropped": 0, "shed": 0, "latency_mean_s": None,
        "latency_p99_s": None, "transitions": [], "recoveries": [],
        "downtime_s": None, "degraded_time_s": 0.0, "level_changes": [],
        "final_ladder_level": 0, "shed_fraction": 0.0,
        "protected_shed_packets": 0, "abandoned_packets": 0,
        "classes": [],
        "violations": [Violation(
            "scenario-error", f"worker failed: {error}",
            data=details).to_dict()],
    }


def recovery_lines(payload: Dict[str, Any]) -> List[str]:
    """One report line per recovery in an outcome."""
    lines = []
    for recovery in payload["recoveries"]:
        ttr = (f"{as_msec(recovery['time_to_recover_s']):.3f}ms"
               if recovery["time_to_recover_s"] is not None else "-")
        lines.append(
            f"  recovery of {recovery['device']}: {recovery['status']} "
            f"in {recovery['attempts']} attempt(s), time-to-recover "
            f"{ttr}, evacuated "
            f"[{', '.join(recovery['evacuated']) or '-'}]")
    return lines


def verdict_lines(payload: Dict[str, Any]) -> List[str]:
    """An outcome's ``VIOLATION`` lines, then its verdict line."""
    lines = [f"  VIOLATION {Violation.from_dict(violation)}"
             for violation in payload["violations"]]
    verdict = "ok" if not payload["violations"] else "INVARIANTS BROKEN"
    lines.append(f"  verdict: {verdict}")
    return lines


def render_payload(payload: Dict[str, Any]) -> str:
    """The CLI report for one run, rendered from its payload alone."""
    lines = [f"scenario {payload['name']!r} (seed {payload['seed']}):",
             f"  final placement: {payload['final_placement']}",
             f"  delivered {payload['delivered']}/{payload['injected']} "
             f"(dropped {payload['dropped']}, shed {payload['shed']})"]
    if payload["transitions"]:
        lines.append("  health transitions:")
        for t in payload["transitions"]:
            lines.append(f"    {as_msec(t['at_s']):7.2f}ms  "
                         f"{t['entity']:<18} "
                         f"{t['previous']} -> {t['state']}  "
                         f"({t['reason']})")
    lines.extend(recovery_lines(payload))
    lines.append(
        f"  degraded for {as_msec(payload['degraded_time_s']):.2f}ms "
        f"(final ladder level {payload['final_ladder_level']})")
    for cls in payload["classes"]:
        lines.append(
            f"    class {cls['name']:<8} "
            f"offered {cls['offered_packets']:>6} "
            f"shed {cls['shed_packets']:>6} ({cls['shed_fraction']:.1%})"
            f"{'' if cls['sheddable'] else '  [protected]'}")
    lines.extend(verdict_lines(payload))
    return "\n".join(lines)


@register_campaign
@dataclass(frozen=True)
class ResilienceCampaign(InvariantCampaign):
    """``runs`` repetitions of one canned scenario, seeded per index."""

    kind = "resilience"
    description = ("canned degradation-ladder scenarios with "
                   "resilience invariant checks")

    scenario: str
    runs: int = 1
    seed: int = 7
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        # Validates the name and the duration.
        scenario_case(self.scenario, self.seed, self.duration_s)
        if self.runs < 1:
            raise ConfigurationError("need at least one scenario run")

    def run_request(self, request: RunRequest) -> Dict[str, Any]:
        """One full scenario run, flattened to its payload."""
        case = scenario_case(self.scenario, request.seed, self.duration_s)
        return {"name": self.scenario, "seed": request.seed,
                **run_outcome(case)}

    def error_payload(self, request: RunRequest, error: str,
                      details: Optional[Dict[str, object]] = None
                      ) -> Dict[str, Any]:
        """Crash isolation: a dead worker's run is itself a violation."""
        return {"name": self.scenario, "seed": request.seed,
                **error_outcome(error, details)}
