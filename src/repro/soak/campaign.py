"""The ``soak`` campaign kind: fuzzed cases on the exec core.

A soak campaign is ``runs`` fuzzed cases drawn from one
:class:`~repro.soak.fuzzer.FuzzSpace` — case ``i`` is
``generate_case(space, seed_for(seed, i))``, so any failing index
replays bit-exact from the campaign seed alone.  Everything the exec
core gives the other kinds applies unchanged: write-ahead journals,
resume, ``--workers N`` with parallel == serial bit-exactness, and run
supervision.

On top, :func:`soak_budget` turns the fuzzing **budgets** into the
driver's ``stop_when`` hook: stop on first failure, or when a
wall-clock budget is exhausted — either writes a clean
``campaign-stop`` record and leaves the journal resumable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..chaos.invariants import Violation
from ..errors import ConfigurationError
from ..exec.campaign import (InvariantCampaign, RunRequest,
                             register_campaign)
from ..exec.driver import StopPredicate
from ..exec.supervisor import DeadlineClock
from .fuzzer import (FuzzSpace, PlantedBug, SoakCase, generate_case,
                     plant)
from .scenario import error_case_payload, run_case


@register_campaign
@dataclass(frozen=True)
class SoakCampaign(InvariantCampaign):
    """``runs`` fuzzed cases drawn from one space at one base seed."""

    kind = "soak"
    description = ("generative chaos fuzzing with online invariant "
                   "checking and reproducer shrinking")

    runs: int
    seed: int
    space: FuzzSpace = field(default_factory=FuzzSpace)
    planted: Optional[PlantedBug] = None
    planted_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigurationError("need at least one soak run")
        if (self.planted is None) != (self.planted_index is None):
            raise ConfigurationError(
                "planted bug and planted index come together")
        if self.planted_index is not None and \
                not (0 <= self.planted_index < self.runs):
            raise ConfigurationError(
                f"planted index {self.planted_index} outside the "
                f"campaign's {self.runs} runs")

    def fingerprint(self) -> Dict[str, object]:
        """The spec, with the plant's index inside the plant."""
        spec = self.spec()
        index = spec.pop("planted_index")
        if self.planted is not None:
            spec["planted"] = {"index": index, **spec["planted"]}
        return spec

    def case_for(self, request: RunRequest) -> SoakCase:
        """The fully drawn (and possibly planted) case for a request."""
        case = generate_case(self.space, request.seed)
        if self.planted is not None and \
                request.index == self.planted_index:
            case = plant(case, self.planted)
        return case

    def run_request(self, request: RunRequest) -> Dict[str, object]:
        """One case; crashes inside become scenario-error payloads."""
        return run_case(self.case_for(request))

    def error_payload(self, request: RunRequest, error: str,
                      details: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
        """Crash isolation: a dead worker's case is itself a finding."""
        return error_case_payload(self.case_for(request), Violation(
            "scenario-error", f"worker failed: {error}", data=details))


def soak_budget(stop_on_failure: bool = False,
                max_wall_s: Optional[float] = None
                ) -> Optional[StopPredicate]:
    """The fuzzing budgets as a ``stop_when`` predicate for
    :func:`~repro.exec.run_campaign`; None when neither is set.

    A budget stop writes a ``campaign-stop`` record, and a later
    ``run_campaign(..., resume_from=journal)`` (with a bigger budget,
    or none) continues the same grid.
    """
    if max_wall_s is not None and max_wall_s <= 0:
        raise ConfigurationError("wall-clock budget must be positive")
    if not stop_on_failure and max_wall_s is None:
        return None
    clock = DeadlineClock()
    deadline_s = (clock.now_s() + max_wall_s
                  if max_wall_s is not None else None)

    def predicate(index: int,
                  payload: Dict[str, object]) -> Optional[str]:
        # The clock reading never enters a payload or the journal's run
        # records — only the stop *reason* string, which is a
        # deliberate, documented wall-clock artifact.
        if stop_on_failure and payload.get("violations"):
            return (f"first failure: run {index} "
                    f"(seed {payload.get('seed')}) violated "
                    f"{len(payload['violations'])} invariant(s)")
        if deadline_s is not None and clock.now_s() >= deadline_s:
            return f"wall-clock budget of {max_wall_s:g}s exhausted"
        return None

    return predicate


def failing_payloads(payloads: List[Dict[str, object]]
                     ) -> List[Dict[str, object]]:
    """The payloads with at least one violation, in index order."""
    return [payload for payload in payloads if payload["violations"]]


def render_payloads(payloads: List[Dict[str, object]]) -> str:
    """The CLI report: one row per case, then violations, then verdict.

    A pure function of the payload list, so a report merged from a
    resumed journal renders identically to the uninterrupted one —
    the property the golden file pins.
    """
    lines = [f"{'seed':>6} {'policy':>9} {'faults':>6} {'inj':>7} "
             f"{'dlv':>7} {'drop':>6} {'shed':>6} {'migr':>5} "
             f"{'recov':>5} {'ticks':>5}  status"]
    for payload in payloads:
        case = payload["case"]
        policy = "resilient" if case["resilient"] else "hardened"
        violations = payload["violations"]
        status = ("ok" if not violations
                  else f"{len(violations)} VIOLATIONS")
        lines.append(
            f"{payload['seed']:>6} {policy:>9} "
            f"{len(case['faults']):>6} {payload['injected']:>7} "
            f"{payload['delivered']:>7} {payload['dropped']:>6} "
            f"{payload['shed']:>6} {payload['migrations']:>5} "
            f"{payload['recoveries']:>5} {payload['ticks']:>5}  "
            f"{status}")
    for payload in payloads:
        for violation in payload["violations"]:
            lines.append(f"seed {payload['seed']}: "
                         f"{violation['invariant']}: "
                         f"{violation['detail']}")
    total = sum(len(payload["violations"]) for payload in payloads)
    verdict = ("all invariants held" if total == 0
               else f"{total} invariant violations")
    lines.append(f"{len(payloads)} soak cases: {verdict}")
    return "\n".join(lines)


__all__ = ["SoakCampaign", "failing_payloads", "render_payloads",
           "soak_budget"]
