"""Soak fuzzing: randomized chaos search with online invariants.

Three pieces, layered on the PR 1–8 robustness stack:

* :mod:`repro.soak.invariants` — a declarative **runtime invariant
  engine**: registered invariants (conservation, monotonic virtual
  time, queue bounds, budget ledger, health-FSM legality, zero
  protected sheds, plus the drained end-state checks from
  :mod:`repro.chaos.invariants`) evaluated *online* at every monitor
  tick and engine event, not just after the drain.
* :mod:`repro.soak.fuzzer` + :mod:`repro.soak.scenario` +
  :mod:`repro.soak.campaign` — a **generative chaos fuzzer**: a seeded
  generator over chaos schedules, workload shapes, and planner
  policies, expanded into the journaled ``soak`` campaign kind on the
  :mod:`repro.exec` core (serial/parallel/supervised, resumable), with
  runs / wall-clock / first-failure budgets.
* :mod:`repro.soak.shrinker` — a **delta-debugging shrinker**: on any
  violation, deterministically minimize the failing schedule to a
  1-minimal reproducer and emit a self-contained JSON file replayable
  via ``python -m repro soak --replay <file>``.

``python -m repro soak`` is the front door; see ``docs/soak.md``.
"""

from .._lazy import lazy_exports

__all__ = [
    "BUG_CONSERVATION", "BUG_PROTECTED_SHED",
    "FuzzSpace", "PlantedBug", "SoakCase",
    "default_space", "generate_case", "parse_plant", "plant",
    "InvariantEngine", "Observation", "RuntimeInvariant",
    "default_invariants", "invariant_catalogue", "register_invariant",
    "CaseScenario", "SoakScenario", "build_case_scenario", "run_case",
    "SoakCampaign", "failing_payloads", "render_payloads", "soak_budget",
    "ReplayOutcome", "ShrinkResult",
    "load_reproducer", "replay_reproducer", "shrink_case",
    "violation_signature", "write_reproducer",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "SoakCampaign": "campaign",
    "failing_payloads": "campaign",
    "render_payloads": "campaign",
    "soak_budget": "campaign",
    "BUG_CONSERVATION": "fuzzer",
    "BUG_PROTECTED_SHED": "fuzzer",
    "FuzzSpace": "fuzzer",
    "PlantedBug": "fuzzer",
    "SoakCase": "fuzzer",
    "default_space": "fuzzer",
    "generate_case": "fuzzer",
    "parse_plant": "fuzzer",
    "plant": "fuzzer",
    "InvariantEngine": "invariants",
    "Observation": "invariants",
    "RuntimeInvariant": "invariants",
    "default_invariants": "invariants",
    "invariant_catalogue": "invariants",
    "register_invariant": "invariants",
    "CaseScenario": "scenario",
    "SoakScenario": "scenario",
    "build_case_scenario": "scenario",
    "run_case": "scenario",
    "ReplayOutcome": "shrinker",
    "ShrinkResult": "shrinker",
    "load_reproducer": "shrinker",
    "replay_reproducer": "shrinker",
    "shrink_case": "shrinker",
    "violation_signature": "shrinker",
    "write_reproducer": "shrinker",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
