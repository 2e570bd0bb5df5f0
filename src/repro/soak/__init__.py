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

from .campaign import (SoakCampaign, failing_payloads,  # noqa: F401
                       render_payloads, soak_budget)
from .fuzzer import (BUG_CONSERVATION, BUG_PROTECTED_SHED,  # noqa: F401
                     FuzzSpace, PlantedBug, SoakCase, default_space,
                     generate_case, parse_plant, plant)
from .invariants import (InvariantEngine, Observation,  # noqa: F401
                         RuntimeInvariant, default_invariants,
                         invariant_catalogue, register_invariant)
from .scenario import (CaseScenario, SoakScenario,  # noqa: F401
                       build_case_scenario, run_case)
from .shrinker import (ReplayOutcome, ShrinkResult,  # noqa: F401
                       load_reproducer, replay_reproducer, shrink_case,
                       violation_signature, write_reproducer)

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
