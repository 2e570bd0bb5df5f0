"""Joint migrate/replicate/shed reliability planning (Carpio & Jukan).

Public surface:

* :func:`plan_reliability` / the policy registry — score one policy's
  per-NF migrate/replicate/shed decision for a protected device;
* :class:`ReliabilityCampaign` — the ``reliability`` campaign kind
  (policies x runs grid, journaled/resumable/parallel like every
  other :mod:`repro.exec` campaign);
* the planner dataclasses for tooling and tests.
"""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "DEFAULT_SYNC_REFRESH_HZ",
    "PLANNING_LOAD_BPS",
    "RELIABILITY_POLICIES",
    "ReliabilityAction",
    "ReliabilityCampaign",
    "ReliabilityPlan",
    "ReliabilityPolicy",
    "ReplicaCandidate",
    "assess_candidates",
    "build_policy",
    "config_for",
    "finalise_plan",
    "plan_for",
    "plan_reliability",
    "register_policy",
    "render_payload",
    "render_payloads",
    "run_payload",
    "shed_damage_at",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "DEFAULT_BUDGET_BYTES": "campaign",
    "PLANNING_LOAD_BPS": "campaign",
    "ReliabilityCampaign": "campaign",
    "config_for": "campaign",
    "plan_for": "campaign",
    "render_payload": "campaign",
    "render_payloads": "campaign",
    "run_payload": "campaign",
    "DEFAULT_SYNC_REFRESH_HZ": "planner",
    "ReliabilityAction": "planner",
    "ReliabilityPlan": "planner",
    "ReplicaCandidate": "planner",
    "assess_candidates": "planner",
    "finalise_plan": "planner",
    "shed_damage_at": "planner",
    "RELIABILITY_POLICIES": "policy",
    "ReliabilityPolicy": "policy",
    "build_policy": "policy",
    "plan_reliability": "policy",
    "register_policy": "policy",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
