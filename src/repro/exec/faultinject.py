"""Fault injection for the supervisor: workers that hang, die, or lie.

The supervisor is tested under its own rules: a registered campaign
wrapper that misbehaves *at the worker level* — below the scenario, the
layer :mod:`repro.chaos` already covers — on a declared schedule.
Wrapping keeps the inner campaign untouched, so an unfaulted serial run
of the inner campaign is the bit-exact reference a supervised, faulted
run must still reproduce.

Fault kinds, per ``(run index, attempt)``:

* ``hang`` — spin forever; only a supervised deadline can end the run.
* ``die`` — ``os._exit(137)``, the container OOM-kill signature: the
  worker vanishes without a reply, exactly like a SIGKILL.
* ``garbage`` — return a non-dict, violating the payload protocol.
* ``error`` — raise inside the worker (travels back as data).

Plans are either declared explicitly (``WorkerFault.parse`` /
``--inject-worker-fault``) or drawn from a seeded RNG
(:meth:`FaultPlan.generate`), the same discipline as
:class:`repro.chaos.faults.FaultPlan`: a plan is a pure function of its
seed, so a faulted campaign is as reproducible as a clean one.

``hang`` and ``die`` faults are meaningful only under the parallel
executor — run in-process, a hang really does hang and a die kills the
campaign process itself.  That is the point: they simulate the
failures only a process boundary survives.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, ExecutionError
from .campaign import (Campaign, RunRequest, build_campaign,
                       register_campaign, spec_from_json, spec_to_json)
from .supervisor import current_attempt

FAULT_HANG = "hang"
FAULT_DIE = "die"
FAULT_GARBAGE = "garbage"
FAULT_ERROR = "error"
_FAULT_KINDS = (FAULT_HANG, FAULT_DIE, FAULT_GARBAGE, FAULT_ERROR)

#: Exit code of a ``die`` fault: 128 + SIGKILL, the OOM-kill signature.
_DIE_EXIT_CODE = 137


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled worker-level fault.

    ``attempts`` lists the attempt numbers the fault fires on
    (``None`` = every attempt, i.e. the run is unrecoverable).  A fault
    on attempt 1 only models a transient failure the retry absorbs.
    """

    index: int
    fault: str
    attempts: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.fault not in _FAULT_KINDS:
            raise ConfigurationError(
                f"unknown worker fault {self.fault!r} "
                f"(known: {', '.join(_FAULT_KINDS)})")
        if self.index < 0:
            raise ConfigurationError("fault run index must be >= 0")
        if self.attempts is not None and any(a < 1 for a in self.attempts):
            raise ConfigurationError("fault attempt numbers are 1-based")

    def applies(self, attempt: int) -> bool:
        """Whether this fault fires on the given attempt number."""
        return self.attempts is None or attempt in self.attempts

    @classmethod
    def parse(cls, text: str) -> "WorkerFault":
        """Parse the CLI form ``INDEX:FAULT[:ATTEMPT[,ATTEMPT...]]``."""
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"worker fault {text!r} is not INDEX:FAULT[:ATTEMPTS]")
        try:
            index = int(parts[0])
            attempts = (None if len(parts) == 2 else
                        tuple(int(a) for a in parts[2].split(",")))
        except ValueError:
            raise ConfigurationError(
                f"worker fault {text!r} has a non-integer index or "
                f"attempt list") from None
        return cls(index=index, fault=parts[1], attempts=attempts)


@dataclass(frozen=True)
class FaultPlan:
    """A full campaign's worth of scheduled worker faults."""

    faults: Tuple[WorkerFault, ...] = ()

    def __post_init__(self) -> None:
        indices = [fault.index for fault in self.faults]
        if len(set(indices)) != len(indices):
            raise ConfigurationError(
                "fault plan schedules multiple faults for one run index")

    def for_index(self, index: int) -> Optional[WorkerFault]:
        """The fault scheduled for a run index, if any."""
        for fault in self.faults:
            if fault.index == index:
                return fault
        return None

    @classmethod
    def parse_all(cls, texts: List[str]) -> "FaultPlan":
        """Build a plan from repeated ``--inject-worker-fault`` values."""
        return cls(faults=tuple(WorkerFault.parse(t) for t in texts))

    @classmethod
    def generate(cls, runs: int, seed: int, fault_rate: float = 0.25,
                 transient_frac: float = 0.5) -> "FaultPlan":
        """Draw a seeded plan, chaos-style: pure function of the seed.

        Each run independently faults with probability ``fault_rate``;
        a faulted run draws its kind uniformly (never ``hang`` — a
        generated plan must terminate under any executor) and is
        transient (attempt 1 only) with probability ``transient_frac``.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ConfigurationError("fault rate must be in [0, 1]")
        rng = random.Random(seed)
        faults = []
        for index in range(runs):
            if rng.random() >= fault_rate:
                continue
            fault = rng.choice((FAULT_DIE, FAULT_GARBAGE, FAULT_ERROR))
            attempts = (1,) if rng.random() < transient_frac else None
            faults.append(WorkerFault(index=index, fault=fault,
                                      attempts=attempts))
        return cls(faults=tuple(faults))


@register_campaign
class FaultInjectedCampaign(Campaign):
    """A campaign wrapper that sabotages scheduled runs worker-side.

    Delegates everything — grid, payloads, error shaping, end record —
    to the inner campaign; only :meth:`run_request` is intercepted, and
    only for ``(index, attempt)`` cells the plan schedules.  The
    fingerprint extends the inner one with the plan, so a faulted
    journal never resumes as (or from) a clean campaign.
    """

    kind = "fault-injected"
    description = ("test-only wrapper that sabotages scheduled runs of "
                   "an inner campaign")

    def __init__(self, inner: Campaign, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def fingerprint(self) -> Dict[str, object]:
        """The inner fingerprint extended with the fault plan."""
        return {"inner": self.inner.fingerprint(),
                "inner_kind": self.inner.kind,
                **spec_to_json(self.plan)}

    def spec(self) -> Dict[str, object]:
        """Worker-rebuildable description: inner kind+spec, plus plan."""
        return {"inner_kind": self.inner.kind,
                "inner_spec": self.inner.spec(),
                **spec_to_json(self.plan)}

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "FaultInjectedCampaign":
        """Rebuild wrapper and inner campaign from :meth:`spec` output."""
        plan = dict(spec)
        inner = build_campaign(str(plan.pop("inner_kind")),
                               dict(plan.pop("inner_spec")))
        return cls(inner, spec_from_json(FaultPlan, plan))

    def requests(self) -> List[RunRequest]:
        """The inner campaign's grid, untouched."""
        return self.inner.requests()

    def run_request(self, request: RunRequest) -> Dict[str, object]:
        """Sabotage scheduled ``(index, attempt)`` cells; else delegate."""
        fault = self.plan.for_index(request.index)
        if fault is not None and fault.applies(current_attempt()):
            return self._trigger(fault, request)
        return self.inner.run_request(request)

    def error_payload(self, request: RunRequest, error: str,
                      details: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
        """Quarantine through the inner campaign's vocabulary."""
        return self.inner.error_payload(request, error, details=details)

    def end_record(self, payloads: List[Dict[str, object]]
                   ) -> Dict[str, object]:
        """The inner campaign's journal totals, untouched."""
        return self.inner.end_record(payloads)

    def _trigger(self, fault: WorkerFault,
                 request: RunRequest) -> Dict[str, object]:
        """Misbehave as scheduled (returns only for ``garbage``)."""
        if fault.fault == FAULT_DIE:
            # The OOM-kill look: no cleanup, no reply, exit code 137.
            os._exit(_DIE_EXIT_CODE)
        if fault.fault == FAULT_HANG:
            while True:  # only a supervised deadline ends this
                time.sleep(0.05)  # repro: noqa[DET107]
        if fault.fault == FAULT_GARBAGE:
            # Deliberate protocol violation: not a payload dict.
            return ["not", "a", "payload", "dict"]  # type: ignore[return-value]
        raise ExecutionError(
            f"injected worker error (run {request.index}, "
            f"attempt {current_attempt()})")
