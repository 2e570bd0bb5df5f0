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

from .crashresume import CrashResumeOutcome, run_crash_resume_check
from .invariants import (Violation, check_invariants,
                         check_resilience_invariants)
from .runner import ChaosReport, ChaosRunner, ChaosRunResult
from .schedule import ChaosConfig, ChaosFault, ChaosSchedule

__all__ = [
    "ChaosConfig", "ChaosFault", "ChaosSchedule",
    "ChaosReport", "ChaosRunner", "ChaosRunResult",
    "CrashResumeOutcome", "run_crash_resume_check",
    "Violation", "check_invariants", "check_resilience_invariants",
]
