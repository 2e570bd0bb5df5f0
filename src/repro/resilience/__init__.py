"""Graceful degradation and failure-domain recovery.

PAM's push-aside migrations (the :mod:`repro.core` planner) assume a
feasible placement exists.  This package is the layer for when it does
not:

* :mod:`~repro.resilience.health` — a per-device / per-NF health state
  machine (healthy -> suspect -> failed -> recovering) driven by live
  progress counters, with seeded-deterministic watchdog jitter;
* :mod:`~repro.resilience.recovery` — evacuation planning on permanent
  device failure: re-host every recoverable NF onto the survivor via
  the same feasibility maths the planner uses, executed through the
  fault-tolerant :class:`~repro.migration.executor.MigrationExecutor`;
* :mod:`~repro.resilience.degradation` — a priority-class degradation
  ladder: when even evacuation cannot fit the offered load, shed the
  configured low-priority fraction at ingress instead of letting
  queues grow without bound;
* :mod:`~repro.resilience.controller` — the
  :class:`~repro.resilience.controller.ResilientController` composing
  all of the above around a
  :class:`~repro.core.operator.HardenedController`;
* :mod:`~repro.resilience.scenarios` — the canned acceptance scenarios
  (`device-kill`, `overload`) behind ``python -m repro resilience``
  and ``bench_resilience``.
"""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_PRIORITY_CLASSES",
    "DegradationConfig",
    "DegradationLadder",
    "EvacuationPlanning",
    "HealthConfig",
    "HealthState",
    "HealthTracker",
    "HealthTransition",
    "IngressShedder",
    "PriorityClass",
    "RecoveryConfig",
    "RecoveryOutcome",
    "ResilienceConfig",
    "ResilientController",
    "StandbyAwareCostModel",
    "StandbyPool",
    "plan_evacuation",
    "reachable_capacity_bps",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "ResilienceConfig": "controller",
    "ResilientController": "controller",
    "DEFAULT_PRIORITY_CLASSES": "degradation",
    "DegradationConfig": "degradation",
    "DegradationLadder": "degradation",
    "IngressShedder": "degradation",
    "PriorityClass": "degradation",
    "HealthConfig": "health",
    "HealthState": "health",
    "HealthTracker": "health",
    "HealthTransition": "health",
    "EvacuationPlanning": "recovery",
    "RecoveryConfig": "recovery",
    "RecoveryOutcome": "recovery",
    "StandbyAwareCostModel": "recovery",
    "StandbyPool": "recovery",
    "plan_evacuation": "recovery",
    "reachable_capacity_bps": "recovery",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
