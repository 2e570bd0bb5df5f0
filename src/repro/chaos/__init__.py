"""Chaos testing: randomized fault campaigns with invariant checking.

The subsystem every scale-out PR leans on to stay correct:

* :mod:`repro.chaos.schedule` — seeded, replayable fault compositions;
* :mod:`repro.chaos.invariants` — what must hold after any run;
* :mod:`repro.chaos.runner` — N randomized scenarios, zero tolerated
  violations, write-ahead run journal (``python -m repro chaos``);
* :mod:`repro.chaos.crashresume` — SIGKILL a campaign mid-flight and
  verify the journal resume is bit-exact
  (``python -m repro crash-resume``).
"""

from .._lazy import lazy_exports

__all__ = [
    "ChaosConfig", "ChaosFault", "ChaosSchedule",
    "ChaosReport", "ChaosRunner", "ChaosRunResult",
    "CrashResumeOutcome", "run_crash_resume_check",
    "Violation", "check_invariants", "check_resilience_invariants",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "CrashResumeOutcome": "crashresume",
    "run_crash_resume_check": "crashresume",
    "Violation": "invariants",
    "check_invariants": "invariants",
    "check_resilience_invariants": "invariants",
    "ChaosReport": "runner",
    "ChaosRunner": "runner",
    "ChaosRunResult": "runner",
    "ChaosConfig": "schedule",
    "ChaosFault": "schedule",
    "ChaosSchedule": "schedule",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
