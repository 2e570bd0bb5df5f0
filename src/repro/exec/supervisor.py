"""Run supervision: the policy, the clock, and the attempt records.

Every executor in :mod:`repro.exec.executors` runs its requests under a
:class:`SupervisionPolicy`; this module holds what they share — the
same retry/rollback/timeout discipline the migration executor applies
to one NF move, lifted to the campaign harness:

* **Deadlines** — :attr:`SupervisionPolicy.run_timeout_s`, a per-run
  wall-clock budget the parallel executor enforces *in the parent* by
  killing the worker, spawning a replacement, and requeueing the run.
* **Bounded deterministic retry** — each failed or timed-out request is
  retried up to :attr:`SupervisionPolicy.max_attempts` with
  seed-derived exponential backoff (:meth:`SupervisionPolicy.backoff_s`,
  never wall-clock-seeded); every failed attempt becomes an
  :func:`attempt_record`, which the campaign driver journals as a
  ``run-attempt`` record.
* **Quarantine** — a request that exhausts its attempts flows through
  the campaign's ``error_payload`` hook, so the campaign completes with
  a recorded ``scenario-error`` instead of dying.
* **Abort budget** — :meth:`SupervisionPolicy.failures_exceeded` gives
  the driver its stop rule: too many quarantined runs and the campaign
  aborts cleanly with a ``campaign-abort`` journal record.

The default policy is inert — one attempt, no deadline, no abort
budget — yet still quarantines: a run that raises, returns garbage, or
loses its worker is recorded, never allowed to take the campaign down.

Determinism contract: supervision changes *when and where* a request
executes, never *what it produces*.  A retried request re-runs from its
own seed and yields the identical payload, so the merged report stays
bit-exact with an uninterrupted serial run.  The one wall clock in the
exec core lives here, in :class:`DeadlineClock`, and nothing read from
it may enter a payload — lint rule ``DET107`` holds the rest of
``repro.exec`` to that.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import ConfigurationError
from ..migration.executor import jittered_backoff_s
from .campaign import RunRequest

#: Attempt-outcome vocabulary, journaled in ``run-attempt`` records.
ATTEMPT_TIMEOUT = "timeout"
ATTEMPT_WORKER_DEATH = "worker-death"
ATTEMPT_ERROR = "error"
ATTEMPT_GARBAGE = "garbage-result"

#: Receives one JSON-clean record per failed attempt (the campaign
#: driver journals them as ``run-attempt`` records).
EventSink = Callable[[Dict[str, object]], None]

#: Mixed into backoff-jitter seeds so the jitter stream never collides
#: with the ``seed_for(campaign_seed, index)`` scenario streams.
_BACKOFF_STREAM = 0x5EEDBACC


class DeadlineClock:
    """The one sanctioned wall-clock source in the exec core.

    Deadlines and backoff pacing are parent-process scheduling
    concerns, so they legitimately read the host's monotonic clock —
    but nothing read here may ever enter a run payload or a journal
    record.  Lint rule ``DET107`` flags wall-clock reads anywhere else
    under ``repro.exec``.
    """

    def now_s(self) -> float:
        """Monotonic seconds; comparable only against itself."""
        return time.monotonic()  # repro: noqa[DET103]


@dataclass(frozen=True)
class SupervisionPolicy:
    """How much failure a campaign absorbs before giving up.

    ``max_failures`` reads as an absolute count when ``>= 1`` and as a
    fraction of the campaign grid when ``< 1``; ``None`` disables the
    abort budget.  Backoff is exponential with seed-derived jitter —
    deterministic given the request seed and attempt number, never
    wall-clock-seeded.
    """

    #: Wall-clock seconds one run may take before its worker is killed
    #: (``None`` disables deadlines; enforceable only with process
    #: isolation, i.e. the parallel executor).
    run_timeout_s: Optional[float] = None
    #: Total tries per request (1 = no retry).
    max_attempts: int = 1
    #: Abort budget: quarantined-run count (``>= 1``) or grid fraction
    #: (``< 1``); ``None`` = never abort.
    max_failures: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 2.0
    jitter_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ConfigurationError("run timeout must be positive")
        if self.max_attempts < 1:
            raise ConfigurationError("max attempts must be >= 1")
        if self.max_failures is not None and self.max_failures < 0:
            raise ConfigurationError("max failures must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ConfigurationError("jitter fraction must be in [0, 1)")

    def backoff_s(self, seed: int, attempt: int) -> float:
        """Delay before re-dispatching ``attempt + 1`` of a request.

        Exponential in the attempt number, capped, with jitter drawn
        from an RNG seeded by the *request seed* and attempt — two
        campaigns with the same spec back off identically on any host.
        """
        return jittered_backoff_s(
            self.backoff_base_s, self.backoff_multiplier,
            self.backoff_cap_s, self.jitter_frac, attempt,
            lambda: random.Random(
                _BACKOFF_STREAM ^ (seed * 1000003 + attempt)).random())

    def allowed_failures(self, total_runs: int) -> Optional[int]:
        """The quarantine budget for a grid of ``total_runs`` requests."""
        if self.max_failures is None:
            return None
        if self.max_failures < 1:
            return int(self.max_failures * total_runs)
        return int(self.max_failures)

    def failures_exceeded(self, quarantined: int, total_runs: int) -> bool:
        """Whether ``quarantined`` runs blow the abort budget."""
        allowed = self.allowed_failures(total_runs)
        return allowed is not None and quarantined > allowed


def attempt_record(request: RunRequest, attempt: int, outcome: str,
                   detail: str, requeued: bool) -> Dict[str, object]:
    """The JSON-clean ``run-attempt`` record for one failed attempt."""
    return {"kind": "run-attempt", "index": request.index,
            "seed": request.seed, "attempt": attempt, "outcome": outcome,
            "detail": detail, "requeued": requeued}


def _quarantine_error(outcome: str, detail: str, attempts: int) -> str:
    """The error string handed to ``error_payload`` on quarantine.

    Built only from the configured attempt budget and the failure
    description — never from measured durations — so serial and
    parallel supervision quarantine a given request with bit-identical
    payloads.
    """
    noun = "attempt" if attempts == 1 else "attempts"
    return f"{detail} ({outcome} after {attempts} {noun})"


# --- attempt context ---------------------------------------------------

#: Attempt number of the request currently executing in this process
#: (1 outside supervision).  Read by the fault-injection harness so a
#: scheduled fault can target "attempt 1 only" and let the retry land.
_CURRENT_ATTEMPT = 1


def current_attempt() -> int:
    """Attempt number of the run executing in this process (1-based)."""
    return _CURRENT_ATTEMPT


def _set_current_attempt(attempt: int) -> None:
    global _CURRENT_ATTEMPT
    _CURRENT_ATTEMPT = attempt
