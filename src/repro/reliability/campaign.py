"""Reliability planning runs as a :mod:`repro.exec` campaign.

The grid is ``policies x runs``: every registered reliability policy
plans against the same figure-1 chain, then its plan is executed for
real — the planner's replica set becomes the ResilientController's
StandbyPool via ``ResilienceConfig.standby_prewarmed``, and the canned
device-kill / overload case (:mod:`repro.resilience.scenarios`), wired
like every soak case and watched by the online invariant engine,
measures what the plan actually bought (downtime, shed fraction,
surviving capacity, latency).  Repetition
``rep`` of every policy runs at ``seed_for(seed, rep)``, so policies
are compared on *paired* seeds.

Payloads are JSON-clean and merge by index, which is what keeps
``--workers N`` reports bit-exact against serial and journals
resumable — the same contract every other campaign kind honours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..chain.nf import DeviceKind
from ..errors import ConfigurationError
from ..exec.campaign import (InvariantCampaign, RunRequest,
                             register_campaign)
from ..exec.scenario import seed_for
from ..harness.scenarios import figure1
from ..resilience.campaign import (error_outcome, recovery_lines,
                                   run_outcome, verdict_lines)
from ..resilience.controller import ResilienceConfig
from ..resilience.recovery import RecoveryConfig
from ..resilience.scenarios import INFEASIBLE_LOAD_BPS, scenario_case
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
                outcome: Dict[str, Any]) -> Dict[str, Any]:
    """One planned-and-measured run: its identity, plan and outcome."""
    return {"scenario": scenario, "policy": policy, "rep": rep,
            "seed": seed, "budget_bytes": budget_bytes,
            "plan": plan.to_dict(), **outcome}


def _names(payload_actions: List[Dict[str, object]],
           action: str) -> str:
    names = [str(entry["nf"]) for entry in payload_actions
             if entry["action"] == action]
    return ", ".join(names) if names else "-"


def render_payload(payload: Dict[str, Any]) -> str:
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
    lines.extend(recovery_lines(payload))
    lines.extend(verdict_lines(payload))
    return "\n".join(lines)


def render_payloads(payloads: List[Dict[str, Any]]) -> str:
    """The full campaign report (what the CLI prints and CI diffs)."""
    sections = [render_payload(payload) for payload in payloads]
    total = sum(len(payload["violations"]) for payload in payloads)
    verdict = "all invariants held" if total == 0 \
        else f"{total} violation(s)"
    sections.append(f"reliability campaign: {len(payloads)} run(s), "
                    f"{verdict}")
    return "\n".join(sections)


@register_campaign
@dataclass(frozen=True)
class ReliabilityCampaign(InvariantCampaign):
    """``policies x runs`` planned-and-measured reliability grid."""

    kind = "reliability"
    description = ("planned-and-measured reliability grid over "
                   "migrate/replicate/shed policies")

    scenario: str = "device-kill"
    policies: Tuple[str, ...] = ("joint", "pam", "naive")
    runs: int = 1
    seed: int = 7
    duration_s: Optional[float] = None
    budget_bytes: int = DEFAULT_BUDGET_BYTES

    def __post_init__(self) -> None:
        # Validates the scenario name and the duration.
        scenario_case(self.scenario, self.seed, self.duration_s)
        if not self.policies:
            raise ConfigurationError("need at least one policy")
        for policy in self.policies:
            if policy not in RELIABILITY_POLICIES:
                known = ", ".join(sorted(RELIABILITY_POLICIES))
                raise ConfigurationError(
                    f"unknown reliability policy {policy!r} "
                    f"(known: {known})")
        if self.runs < 1:
            raise ConfigurationError("need at least one run per policy")
        if self.budget_bytes < 0:
            raise ConfigurationError("replica budget must be >= 0")

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

    def run_request(self, request: RunRequest) -> Dict[str, Any]:
        """Plan with the request's policy, then measure the plan."""
        policy = str(request.params["policy"])
        plan = plan_for(policy, self.scenario, self.budget_bytes)
        case = scenario_case(self.scenario, request.seed, self.duration_s)
        return run_payload(self.scenario, policy,
                           int(request.params["rep"]), request.seed,
                           self.budget_bytes, plan,
                           run_outcome(case, config_for(plan)))

    def error_payload(self, request: RunRequest, error: str,
                      details: Optional[Dict[str, object]] = None
                      ) -> Dict[str, Any]:
        """Crash isolation: a dead worker's run is itself a violation."""
        policy = str(request.params["policy"])
        return run_payload(self.scenario, policy,
                           int(request.params["rep"]), request.seed,
                           self.budget_bytes,
                           ReliabilityPlan(policy, "-", self.budget_bytes),
                           error_outcome(error, details))
