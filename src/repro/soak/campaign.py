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

from typing import Dict, List, Optional

from ..chaos.invariants import Violation
from ..errors import ConfigurationError
from ..exec import (Campaign, RunRequest, StopPredicate, register_campaign,
                    seed_for)
from ..exec.supervisor import DeadlineClock
from .fuzzer import (FuzzSpace, PlantedBug, SoakCase, generate_case,
                     plant)
from .scenario import error_case_payload, run_case


@register_campaign
class SoakCampaign(Campaign):
    """``runs`` fuzzed cases drawn from one space at one base seed."""

    kind = "soak"
    description = ("generative chaos fuzzing with online invariant "
                   "checking and reproducer shrinking")

    def __init__(self, runs: int, seed: int,
                 space: Optional[FuzzSpace] = None,
                 planted: Optional[PlantedBug] = None,
                 planted_index: Optional[int] = None) -> None:
        if runs < 1:
            raise ConfigurationError("need at least one soak run")
        if (planted is None) != (planted_index is None):
            raise ConfigurationError(
                "planted bug and planted index come together")
        if planted_index is not None and \
                not (0 <= planted_index < runs):
            raise ConfigurationError(
                f"planted index {planted_index} outside the "
                f"campaign's {runs} runs")
        self.runs = runs
        self.seed = seed
        self.space = space or FuzzSpace()
        self.planted = planted
        self.planted_index = planted_index

    def fingerprint(self) -> Dict[str, object]:
        """Campaign identity: runs, base seed, space, and any plant."""
        plant_spec: Optional[Dict[str, object]] = None
        if self.planted is not None:
            plant_spec = {"index": self.planted_index,
                          **self.planted.to_dict()}
        return {"runs": self.runs, "seed": self.seed,
                "space": self.space.to_dict(), "planted": plant_spec}

    def spec(self) -> Dict[str, object]:
        """Everything a worker needs to rebuild this campaign."""
        return self.fingerprint()

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "SoakCampaign":
        """Rebuild from :meth:`spec` (worker-side construction)."""
        planted = spec.get("planted")
        return cls(
            runs=int(spec["runs"]), seed=int(spec["seed"]),
            space=FuzzSpace.from_dict(spec["space"]),
            planted=(PlantedBug.from_dict(planted)
                     if planted else None),
            planted_index=(int(planted["index"]) if planted else None))

    def requests(self) -> List[RunRequest]:
        """Case ``i`` draws at ``seed_for(seed, i)``."""
        return [RunRequest(index=index, seed=seed_for(self.seed, index))
                for index in range(self.runs)]

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

    def end_record(self, payloads: List[Dict[str, object]]
                   ) -> Dict[str, object]:
        """Campaign totals for the journal's ``campaign-end`` record."""
        return {"runs": self.runs,
                "violations": sum(len(payload["violations"])
                                  for payload in payloads)}


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
