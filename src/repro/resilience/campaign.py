"""Resilience scenario runs as a :mod:`repro.exec` campaign.

The canned scenarios (device-kill, overload) used to be driven by a
bespoke loop in the CLI.  This module turns them into a campaign:
``runs`` repetitions at seeds ``seed_for(seed, i)``, each producing a
JSON-clean payload holding everything the CLI report prints — health
transitions, recovery latencies, per-class shed accounting, and the
invariant verdict.  Payloads cross process boundaries and journal
round-trips unchanged, which is what makes ``--workers N`` and
``--journal``/``--resume-journal`` work for resilience exactly as they
do for chaos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..chaos.invariants import Violation
from ..errors import ConfigurationError
from ..exec.campaign import (InvariantCampaign, RunRequest,
                             register_campaign)
from ..units import as_msec
from .scenarios import SCENARIOS, ResilienceScenarioResult, run_scenario


def scenario_payload(run: ResilienceScenarioResult) -> Dict[str, object]:
    """Flatten one scenario run into the campaign's JSON payload.

    Includes the invariant verdict the scenario's ``collect()`` checked
    on the live run (a worker ships only this dict back to the parent).
    """
    controller = run.controller
    stats = run.stats
    return {
        "name": run.name,
        "seed": run.seed,
        "final_placement": str(run.result.final_placement),
        "injected": run.result.injected,
        "delivered": run.result.delivered,
        "dropped": run.result.dropped,
        "shed": run.result.shed,
        "transitions": [
            {"at_s": t.at_s, "entity": t.entity,
             "previous": t.previous.value, "state": t.state.value,
             "reason": t.reason}
            for t in controller.health.transitions],
        "recoveries": [
            {"device": r.device, "status": r.status,
             "attempts": r.attempts,
             "time_to_recover_s": r.time_to_recover_s,
             "evacuated": list(r.evacuated)}
            for r in stats.recoveries],
        "degraded_time_s": stats.degraded_time_s,
        "final_ladder_level": stats.final_ladder_level,
        "classes": [
            {"name": cls.name, "sheddable": cls.sheddable,
             "offered_packets": cls.offered_packets,
             "shed_packets": cls.shed_packets,
             "shed_fraction": cls.shed_fraction}
            for cls in stats.classes],
        "violations": [v.to_dict() for v in run.violations],
    }


def render_payload(payload: Dict[str, object]) -> str:
    """The CLI report for one run, rendered from its payload alone.

    Byte-identical to what the pre-campaign CLI printed from the live
    controller — pinned by the CLI tests.
    """
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
    for recovery in payload["recoveries"]:
        ttr = (f"{as_msec(recovery['time_to_recover_s']):.3f}ms"
               if recovery["time_to_recover_s"] is not None else "-")
        lines.append(
            f"  recovery of {recovery['device']}: {recovery['status']} "
            f"in {recovery['attempts']} attempt(s), time-to-recover "
            f"{ttr}, evacuated "
            f"[{', '.join(recovery['evacuated']) or '-'}]")
    lines.append(
        f"  degraded for {as_msec(payload['degraded_time_s']):.2f}ms "
        f"(final ladder level {payload['final_ladder_level']})")
    for cls in payload["classes"]:
        lines.append(
            f"    class {cls['name']:<8} "
            f"offered {cls['offered_packets']:>6} "
            f"shed {cls['shed_packets']:>6} ({cls['shed_fraction']:.1%})"
            f"{'' if cls['sheddable'] else '  [protected]'}")
    for violation in payload["violations"]:
        lines.append(f"  VIOLATION {Violation.from_dict(violation)}")
    verdict = "ok" if not payload["violations"] else "INVARIANTS BROKEN"
    lines.append(f"  verdict: {verdict}")
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
        if self.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ConfigurationError(
                f"unknown resilience scenario {self.scenario!r} "
                f"(known: {known})")
        if self.runs < 1:
            raise ConfigurationError("need at least one scenario run")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")

    def run_request(self, request: RunRequest) -> Dict[str, object]:
        """One full scenario run, flattened to its payload."""
        run = run_scenario(self.scenario, seed=request.seed,
                           duration_s=self.duration_s)
        return scenario_payload(run)

    def error_payload(self, request: RunRequest, error: str,
                      details: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
        """Crash isolation: a dead worker's run is itself a violation."""
        return {
            "name": self.scenario, "seed": request.seed,
            "final_placement": "-", "injected": 0, "delivered": 0,
            "dropped": 0, "shed": 0, "transitions": [],
            "recoveries": [], "degraded_time_s": 0.0,
            "final_ladder_level": 0, "classes": [],
            "violations": [Violation(
                "scenario-error", f"worker failed: {error}",
                data=details).to_dict()],
        }
