"""Reliability planning runs as a :mod:`repro.exec` campaign.

The grid is ``policies x runs``: every registered reliability policy
plans against the same figure-1 chain, then its plan is executed for
real — the planner's replica set becomes the ResilientController's
StandbyPool via ``ResilienceConfig.standby_prewarmed``, and the chaos
device-kill / overload scenario measures what the plan actually bought
(downtime, shed fraction, surviving capacity, latency).  Repetition
``rep`` of every policy runs at ``seed_for(seed, rep)``, so policies
are compared on *paired* seeds.

Payloads are JSON-clean and merge by index, which is what keeps
``--workers N`` reports bit-exact against serial and journals
resumable — the same contract every other campaign kind honours.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..chain.nf import DeviceKind
from ..chaos.invariants import Violation
from ..errors import ConfigurationError
from ..exec.campaign import Campaign, RunRequest, register_campaign
from ..exec.scenario import seed_for
from ..harness.scenarios import figure1
from ..resilience.controller import ResilienceConfig
from ..resilience.recovery import RecoveryConfig
from ..resilience.scenarios import (INFEASIBLE_LOAD_BPS, SCENARIOS,
                                    ResilienceScenarioResult, run_scenario)
from ..units import as_gbps, as_mbps, as_msec, as_usec, gbps
from .planner import ReliabilityPlan
from .policy import RELIABILITY_POLICIES, plan_reliability

#: Offered load each scenario is planned against (its worst case: the
#: spike peak for device-kill, the sustained infeasible load for
#: overload) — planning for the average would undersize the shed story.
PLANNING_LOAD_BPS: Dict[str, float] = {
    "device-kill": gbps(1.8),
    "overload": INFEASIBLE_LOAD_BPS,
}

#: Default replica byte budget (fits the figure-1 monitor + firewall
#: with room to spare — enough for the policies to disagree).
DEFAULT_BUDGET_BYTES = 1 << 20


def plan_for(policy: str, scenario: str,
             budget_bytes: int) -> ReliabilityPlan:
    """The policy's plan for one scenario's protected-device failure."""
    server = figure1().build_server()
    return plan_reliability(policy, server.placement,
                            PLANNING_LOAD_BPS[scenario],
                            protected=DeviceKind.SMARTNIC,
                            budget_bytes=budget_bytes,
                            pcie=server.pcie)


def config_for(plan: ReliabilityPlan) -> ResilienceConfig:
    """The ResilienceConfig that executes ``plan``.

    The scaleout policy delegates replica choice to the StandbyPool's
    greedy default (``standby_prewarmed=None``); every other policy
    pins its explicit replica set so the runtime pool admits exactly
    what the planner scored.
    """
    prewarmed: Optional[Tuple[str, ...]] = plan.prewarmed
    if plan.policy == "scaleout":
        prewarmed = None
    return ResilienceConfig(
        recovery=RecoveryConfig(
            standby_budget_bytes=plan.budget_bytes),
        standby_prewarmed=prewarmed)


def run_payload(scenario: str, policy: str, rep: int, seed: int,
                budget_bytes: int, plan: ReliabilityPlan,
                run: ResilienceScenarioResult) -> Dict[str, object]:
    """Flatten one planned-and-measured run into its JSON payload."""
    stats = run.stats
    latency = run.result.latency
    return {
        "scenario": scenario,
        "policy": policy,
        "rep": rep,
        "seed": seed,
        "budget_bytes": budget_bytes,
        "plan": plan.to_dict(),
        "injected": run.result.injected,
        "delivered": run.result.delivered,
        "dropped": run.result.dropped,
        "shed": run.result.shed,
        "latency_mean_s": None if latency is None else latency.mean_s,
        "latency_p99_s": None if latency is None else latency.p99_s,
        "downtime_s": run.time_to_recover_s,
        "degraded_time_s": stats.degraded_time_s,
        "shed_fraction": stats.shed_fraction,
        "protected_shed_packets": stats.protected_shed_packets,
        "recoveries": [
            {"device": r.device, "status": r.status,
             "attempts": r.attempts,
             "time_to_recover_s": r.time_to_recover_s,
             "evacuated": list(r.evacuated)}
            for r in stats.recoveries],
        "violations": [v.to_dict() for v in run.violations],
    }


def _names(payload_actions: List[Dict[str, object]],
           action: str) -> str:
    names = [str(entry["nf"]) for entry in payload_actions
             if entry["action"] == action]
    return ", ".join(names) if names else "-"


def render_payload(payload: Dict[str, object]) -> str:
    """One run's report, rendered from its payload alone."""
    plan = payload["plan"]
    actions = plan["actions"]
    downtime = payload["downtime_s"]
    measured = ("-" if downtime is None
                else f"{as_msec(downtime):.3f}ms")
    mean = payload["latency_mean_s"]
    p99 = payload["latency_p99_s"]
    latency = ("-" if mean is None
               else f"mean {as_usec(mean):.1f}us p99 {as_usec(p99):.1f}us")
    lines = [
        f"reliability {payload['scenario']} policy={payload['policy']} "
        f"(rep {payload['rep']}, seed {payload['seed']}, "
        f"budget {payload['budget_bytes']}B):",
        f"  plan: replicate [{_names(actions, 'replicate')}] "
        f"(spent {plan['spent_bytes']}B, "
        f"sync {as_mbps(plan['sync_bps']):.1f} Mbps); "
        f"migrate [{_names(actions, 'migrate')}]; "
        f"shed [{_names(actions, 'shed')}]",
        f"  predicted: downtime {as_msec(plan['predicted_downtime_s']):.3f}ms, "
        f"headroom {as_gbps(plan['headroom_bps']):.3f} Gbps, "
        f"shed damage {plan['shed_damage']:.3f}",
        f"  measured: downtime {measured}, "
        f"shed {payload['shed_fraction']:.1%} "
        f"(protected {payload['protected_shed_packets']}), "
        f"delivered {payload['delivered']}/{payload['injected']} "
        f"(dropped {payload['dropped']}, shed {payload['shed']})",
        f"  latency: {latency}",
    ]
    for recovery in payload["recoveries"]:
        ttr = (f"{as_msec(recovery['time_to_recover_s']):.3f}ms"
               if recovery["time_to_recover_s"] is not None else "-")
        lines.append(
            f"  recovery of {recovery['device']}: {recovery['status']} "
            f"in {recovery['attempts']} attempt(s), time-to-recover "
            f"{ttr}, evacuated "
            f"[{', '.join(recovery['evacuated']) or '-'}]")
    for violation in payload["violations"]:
        lines.append(f"  VIOLATION {Violation.from_dict(violation)}")
    verdict = "ok" if not payload["violations"] else "INVARIANTS BROKEN"
    lines.append(f"  verdict: {verdict}")
    return "\n".join(lines)


def render_payloads(payloads: List[Dict[str, object]]) -> str:
    """The full campaign report (what the CLI prints and CI diffs)."""
    sections = [render_payload(payload) for payload in payloads]
    total = sum(len(payload["violations"]) for payload in payloads)
    verdict = "all invariants held" if total == 0 \
        else f"{total} violation(s)"
    sections.append(f"reliability campaign: {len(payloads)} run(s), "
                    f"{verdict}")
    return "\n".join(sections)


@register_campaign
class ReliabilityCampaign(Campaign):
    """``policies x runs`` planned-and-measured reliability grid."""

    kind = "reliability"
    description = ("planned-and-measured reliability grid over "
                   "migrate/replicate/shed policies")

    def __init__(self, scenario: str = "device-kill",
                 policies: Tuple[str, ...] = ("joint", "pam", "naive"),
                 runs: int = 1, seed: int = 7,
                 duration_s: Optional[float] = None,
                 budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        if scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ConfigurationError(
                f"unknown resilience scenario {scenario!r} "
                f"(known: {known})")
        if not policies:
            raise ConfigurationError("need at least one policy")
        for policy in policies:
            if policy not in RELIABILITY_POLICIES:
                known = ", ".join(sorted(RELIABILITY_POLICIES))
                raise ConfigurationError(
                    f"unknown reliability policy {policy!r} "
                    f"(known: {known})")
        if runs < 1:
            raise ConfigurationError("need at least one run per policy")
        if duration_s is not None and duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if budget_bytes < 0:
            raise ConfigurationError("replica budget must be >= 0")
        self.scenario = scenario
        self.policies = tuple(policies)
        self.runs = runs
        self.seed = seed
        self.duration_s = duration_s
        self.budget_bytes = budget_bytes

    def fingerprint(self) -> Dict[str, object]:
        """Campaign identity for journal-resume validation."""
        return {"scenario": self.scenario,
                "policies": list(self.policies),
                "runs": self.runs, "seed": self.seed,
                "duration_s": self.duration_s,
                "budget_bytes": self.budget_bytes}

    def spec(self) -> Dict[str, object]:
        """Worker-rebuildable description (same as the fingerprint)."""
        return self.fingerprint()

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "ReliabilityCampaign":
        """Rebuild from :meth:`spec` (worker-side construction)."""
        duration = spec["duration_s"]
        return cls(scenario=str(spec["scenario"]),
                   policies=tuple(str(policy)
                                  for policy in spec["policies"]),
                   runs=int(spec["runs"]), seed=int(spec["seed"]),
                   duration_s=None if duration is None
                   else float(duration),
                   budget_bytes=int(spec["budget_bytes"]))

    def requests(self) -> List[RunRequest]:
        """Policy-major grid; repetition ``rep`` of every policy shares
        ``seed_for(seed, rep)`` (paired comparison)."""
        requests: List[RunRequest] = []
        index = 0
        for policy in self.policies:
            for rep in range(self.runs):
                requests.append(RunRequest(
                    index=index, seed=seed_for(self.seed, rep),
                    params={"policy": policy, "rep": rep}))
                index += 1
        return requests

    def run_request(self, request: RunRequest) -> Dict[str, object]:
        """Plan with the request's policy, then measure the plan."""
        policy = str(request.params["policy"])
        rep = int(request.params["rep"])
        plan = plan_for(policy, self.scenario, self.budget_bytes)
        run = run_scenario(self.scenario, seed=request.seed,
                           duration_s=self.duration_s,
                           config=config_for(plan))
        return run_payload(self.scenario, policy, rep, request.seed,
                           self.budget_bytes, plan, run)

    def error_payload(self, request: RunRequest, error: str,
                      details: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
        """Crash isolation: a dead worker's run is itself a violation."""
        policy = str(request.params["policy"])
        return {
            "scenario": self.scenario, "policy": policy,
            "rep": int(request.params["rep"]), "seed": request.seed,
            "budget_bytes": self.budget_bytes,
            "plan": {"policy": policy, "protected": "-",
                     "budget_bytes": self.budget_bytes, "actions": [],
                     "prewarmed": [], "spent_bytes": 0,
                     "predicted_downtime_s": 0.0, "sync_bps": 0.0,
                     "headroom_bps": 0.0, "survivor_capacity_bps": 0.0,
                     "shed_damage": 0.0, "offered_bps": 0.0,
                     "notes": []},
            "injected": 0, "delivered": 0, "dropped": 0, "shed": 0,
            "latency_mean_s": None, "latency_p99_s": None,
            "downtime_s": None, "degraded_time_s": 0.0,
            "shed_fraction": 0.0, "protected_shed_packets": 0,
            "recoveries": [],
            "violations": [Violation(
                "scenario-error", f"worker failed: {error}",
                data=details).to_dict()],
        }

    def end_record(self, payloads: List[Dict[str, object]]
                   ) -> Dict[str, object]:
        """Campaign totals for the journal's ``campaign-end`` record."""
        return {"runs": len(payloads),
                "violations": sum(len(payload["violations"])
                                  for payload in payloads)}
