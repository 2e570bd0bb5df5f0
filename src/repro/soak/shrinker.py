"""Delta-debugging shrinker: from a failing case to a 1-minimal repro.

Given a failing :class:`~repro.soak.fuzzer.SoakCase`, the shrinker
re-executes edited candidates until no single edit preserves the
failure — the classic ddmin algorithm over the fault list, followed by
per-event simplification (shorten durations, round timestamps).  The
**oracle** is signature equality: a candidate counts as "still
failing" iff the sorted set of violated invariant names matches the
original's, so shrinking can never wander from one bug to a different
one.

Everything is deterministic: no RNG, candidates generated and tried in
a fixed order, results memoised by the candidate's canonical JSON.
The same failing case always shrinks to the byte-identical reproducer
file — pinned by tests and the CI ``soak-smoke`` job.

The reproducer is self-contained JSON (``docs/formats.md``, "Soak
reproducers"): the minimized case, the violations it produces, and
shrink statistics.  ``python -m repro soak --replay <file>`` re-runs
the case and compares the violations bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..chaos.schedule import ChaosFault
from ..checkpoint.journal import canonical_json
from ..errors import CheckpointError, ConfigurationError
from .fuzzer import MIN_FAULT_DURATION_S, SoakCase
from .scenario import run_case

#: Reproducer file identity (validated on load).
REPRODUCER_FORMAT = "soak-reproducer"
REPRODUCER_VERSION = 1

#: Precision ladder for timestamp rounding (coarsest last).
_ROUND_DIGITS = (4, 3, 2)

RunCase = Callable[[SoakCase], Dict[str, object]]


def violation_signature(violations: List[Dict[str, object]]
                        ) -> Tuple[str, ...]:
    """The sorted, deduplicated invariant names — the shrink oracle."""
    return tuple(sorted({str(v["invariant"]) for v in violations}))


@dataclass
class ShrinkResult:
    """A minimized failing case plus the search's bookkeeping."""

    #: The case the shrink started from.
    original: SoakCase
    #: The 1-minimal case (no single fault can be dropped).
    case: SoakCase
    #: Violations the minimized case produces (payload dicts).
    violations: List[Dict[str, object]]
    #: The preserved failure signature.
    signature: Tuple[str, ...]
    #: Scenario executions the search spent (memoised duplicates not
    #: counted twice).
    executions: int


class _Oracle:
    """Memoised "does this candidate still fail the same way" check."""

    def __init__(self, target: Tuple[str, ...], run: RunCase) -> None:
        self.target = target
        self.run = run
        self.executions = 0
        self._cache: Dict[str, Optional[List[Dict[str, object]]]] = {}

    def failing_violations(self, case: SoakCase
                           ) -> Optional[List[Dict[str, object]]]:
        """The candidate's violations iff its signature matches."""
        key = canonical_json(case.to_dict())
        if key not in self._cache:
            self.executions += 1
            payload = self.run(case)
            violations = list(payload["violations"])
            matches = violation_signature(violations) == self.target
            self._cache[key] = violations if matches else None
        return self._cache[key]


def _ddmin(events: List[ChaosFault], case: SoakCase,
           oracle: _Oracle) -> List[ChaosFault]:
    """Classic ddmin over the fault list (complement removal)."""
    # Cheapest first: does the failure even need faults?
    if events and oracle.failing_violations(
            case.with_faults(())) is not None:
        return []
    granularity = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // granularity)
        reduced = False
        start = 0
        while start < len(events):
            candidate = events[:start] + events[start + chunk:]
            if candidate and oracle.failing_violations(
                    case.with_faults(candidate)) is not None:
                events = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0
            else:
                start += chunk
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return events


def _one_minimal(events: List[ChaosFault], case: SoakCase,
                 oracle: _Oracle) -> List[ChaosFault]:
    """Drop single events until none can go — the 1-minimality pass."""
    changed = True
    while changed and len(events) > 1:
        changed = False
        for index in range(len(events)):
            candidate = events[:index] + events[index + 1:]
            if oracle.failing_violations(
                    case.with_faults(candidate)) is not None:
                events = candidate
                changed = True
                break
    if len(events) == 1 and oracle.failing_violations(
            case.with_faults(())) is not None:
        return []
    return events


def _simplify_candidates(fault: ChaosFault) -> List[ChaosFault]:
    """Simpler variants of one fault, most aggressive first."""
    candidates: List[ChaosFault] = []
    if fault.duration_s > MIN_FAULT_DURATION_S:
        candidates.append(replace(fault,
                                  duration_s=MIN_FAULT_DURATION_S))
    for digits in _ROUND_DIGITS:
        rounded = round(fault.at_s, digits)
        # Exact comparison on purpose: a candidate is only worth trying
        # if rounding changed the value at all.
        if rounded != fault.at_s and rounded >= 0.0:  # repro: noqa[UNIT203]
            candidates.append(replace(fault, at_s=rounded))
    return candidates


def _simplify(events: List[ChaosFault], case: SoakCase,
              oracle: _Oracle) -> List[ChaosFault]:
    """Shorten durations and round timestamps, to a fixpoint."""
    changed = True
    while changed:
        changed = False
        for index in range(len(events)):
            for variant in _simplify_candidates(events[index]):
                candidate = list(events)
                candidate[index] = variant
                if oracle.failing_violations(
                        case.with_faults(candidate)) is not None:
                    events = candidate
                    changed = True
                    break
            if changed:
                break
    return events


def shrink_case(case: SoakCase, run: RunCase = run_case) -> ShrinkResult:
    """Minimize a failing case: ddmin, 1-minimality, simplification.

    Raises :class:`ConfigurationError` if ``case`` does not fail at
    all.  ``run`` is injectable for tests (synthetic oracles).
    """
    baseline = run(case)
    target = violation_signature(list(baseline["violations"]))
    if not target:
        raise ConfigurationError(
            "case does not violate any invariant; nothing to shrink")
    oracle = _Oracle(target, run)
    # Seed the memo with the baseline so re-confirming costs nothing.
    oracle._cache[canonical_json(case.to_dict())] = \
        list(baseline["violations"])
    oracle.executions = 1

    events = list(case.faults)
    events = _ddmin(events, case, oracle)
    events = _one_minimal(events, case, oracle)
    events = _simplify(events, case, oracle)

    minimized = case.with_faults(events)
    violations = oracle.failing_violations(minimized)
    if violations is None:  # pragma: no cover - accepted edits only
        raise CheckpointError("shrinker accepted a non-failing case")
    return ShrinkResult(original=case, case=minimized,
                        violations=violations, signature=target,
                        executions=oracle.executions)


def reproducer_document(result: ShrinkResult) -> Dict[str, object]:
    """The reproducer's JSON document (see ``docs/formats.md``)."""
    return {
        "format": REPRODUCER_FORMAT,
        "version": REPRODUCER_VERSION,
        "case": result.case.to_dict(),
        "violations": list(result.violations),
        "signature": list(result.signature),
        "shrink": {
            "executions": result.executions,
            "original_events": len(result.original.faults),
            "events": len(result.case.faults),
        },
    }


def write_reproducer(path, result: ShrinkResult) -> None:
    """Write the reproducer as canonical JSON (byte-deterministic)."""
    Path(path).write_text(
        canonical_json(reproducer_document(result)) + "\n",
        encoding="utf-8")


def load_reproducer(path) -> Dict[str, object]:
    """Load and validate a reproducer document."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(
            f"cannot read reproducer {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(
            f"reproducer {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or \
            document.get("format") != REPRODUCER_FORMAT:
        raise CheckpointError(
            f"reproducer {path} is not a {REPRODUCER_FORMAT} document")
    if document.get("version") != REPRODUCER_VERSION:
        raise CheckpointError(
            f"reproducer {path} has unsupported version "
            f"{document.get('version')!r} "
            f"(supported: {REPRODUCER_VERSION})")
    return document


@dataclass
class ReplayOutcome:
    """A reproducer replay: recorded vs. re-executed violations."""

    case: SoakCase
    expected: List[Dict[str, object]]
    actual: List[Dict[str, object]]

    @property
    def match(self) -> bool:
        """Whether the replay reproduced the violations bit-exact."""
        return canonical_json(self.expected) == canonical_json(self.actual)

    def render(self) -> str:
        """Human-readable verdict for the CLI."""
        lines = [f"replaying case seed {self.case.seed} "
                 f"({len(self.case.faults)} fault event(s))"]
        for violation in self.actual:
            lines.append(f"  {violation['invariant']}: "
                         f"{violation['detail']}")
        if self.match:
            lines.append("replay matches the recorded violations "
                         "bit-exact")
        else:
            lines.append("REPLAY DIVERGED from the recorded violations")
            for violation in self.expected:
                lines.append(f"  recorded: {violation['invariant']}: "
                             f"{violation['detail']}")
        return "\n".join(lines)


def replay_reproducer(path, run: RunCase = run_case) -> ReplayOutcome:
    """Re-execute a reproducer and compare against its record."""
    document = load_reproducer(path)
    case = SoakCase.from_dict(document["case"])
    payload = run(case)
    return ReplayOutcome(case=case,
                         expected=list(document["violations"]),
                         actual=list(payload["violations"]))


__all__ = [
    "REPRODUCER_FORMAT", "REPRODUCER_VERSION",
    "ReplayOutcome", "ShrinkResult",
    "load_reproducer", "replay_reproducer", "reproducer_document",
    "shrink_case", "violation_signature", "write_reproducer",
]
