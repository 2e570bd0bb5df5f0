"""The one campaign loop: journal middleware + deterministic merge.

:func:`run_campaign` is the single place campaign progress is driven,
journaled, resumed, and merged.  The journal protocol is the one the
chaos runner established in the crash-safe-campaigns PR, now applied
uniformly to every campaign kind ([docs/formats.md], "Run journals"):

* ``campaign-start`` — the campaign's ``kind`` (as ``campaign``) plus
  its fingerprint; validated on resume.
* ``run-result`` — ``{"index": i, "result": payload}`` per completed
  run, appended in completion order (which under a parallel executor
  is not index order — the index is what matters).
* ``campaign-progress`` — every ``checkpoint_every`` completed runs: a
  completed count and a digest over the completed payloads in index
  order.
* ``run-attempt`` — one per *failed* attempt (index, seed, attempt
  number, outcome, whether it was requeued); successful attempts
  journal nothing, their payload is the ``run-result``.
* ``campaign-abort`` — appended when execution dies mid-flight (a
  crash, ``KeyboardInterrupt``, or the supervision abort budget), with
  the exception summary and completed count, so a journal always
  distinguishes an interrupted campaign from a clean ``campaign-end``.
* ``campaign-stop`` — appended when a ``stop_when`` budget predicate
  ends the campaign early *on purpose* (soak first-failure or
  wall-clock budgets): the reason plus completed/executed counts.
  Unlike an abort, nothing went wrong; like an abort, the journal
  resumes from where it stopped.
* ``campaign-end`` — campaign totals from ``Campaign.end_record``.

Resume replays ``run-result`` payloads by index and executes only the
requests the journal does not cover (``run-attempt`` and
``campaign-abort`` records ride along as history and replay to
nothing); the merged payload list is always ordered by request index,
so an interrupted-and-resumed campaign, a serial campaign, and a
parallel campaign all render the same report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..checkpoint.journal import (JournalWriter, canonical_json,
                                  read_journal, record_checksum)
from ..errors import CampaignAborted, ConfigurationError
from .campaign import Campaign
from .executors import Executor, SerialExecutor

#: Budget predicate for :func:`run_campaign`: called with
#: ``(index, payload)`` after each completed run; a truthy string stops
#: the campaign cleanly with that reason.
StopPredicate = Callable[[int, Dict[str, object]], Optional[str]]


@dataclass
class CampaignOutcome:
    """What one :func:`run_campaign` call produced."""

    #: Result payloads ordered by request index (never completion order).
    payloads: List[Dict[str, object]]
    #: Runs restored from the journal instead of executed.
    replayed: int
    #: Runs actually executed this call.
    executed: int
    #: Budget-stop reason (``stop_when``); None on a full campaign.
    stopped: Optional[str] = None


def replay_campaign_journal(campaign: Campaign, resume_from: str
                            ) -> Dict[int, Dict[str, object]]:
    """Completed payloads by run index, fingerprint-validated.

    Tolerates a torn trailing record (the crash the journal exists
    for) with a warning; refuses journals with no ``campaign-start``
    or with a fingerprint that does not match ``campaign``'s.
    """
    outcome = read_journal(resume_from, tolerate_torn_tail=True)
    if outcome.dropped_tail:
        warnings.warn(
            f"journal {resume_from}: {outcome.dropped_detail}; "
            f"resuming from the last intact record",
            RuntimeWarning, stacklevel=3)
    starts = outcome.of_kind("campaign-start")
    if not starts:
        raise ConfigurationError(
            f"journal {resume_from} has no campaign-start record")
    expected = campaign.fingerprint()
    try:
        recorded = {key: starts[0][key] for key in expected}
    except KeyError as exc:
        raise ConfigurationError(
            f"journal {resume_from} campaign-start record is missing "
            f"fingerprint key {exc}") from None
    if canonical_json(recorded) != canonical_json(expected):
        raise ConfigurationError(
            f"journal {resume_from} fingerprint mismatch — written by "
            f"a different campaign: recorded {recorded}, "
            f"resuming {expected}")
    return {int(record["index"]): dict(record["result"])
            for record in outcome.of_kind("run-result")}


def run_campaign(campaign: Campaign,
                 executor: Optional[Executor] = None,
                 journal_path: Optional[str] = None,
                 resume_from: Optional[str] = None,
                 checkpoint_every: int = 5,
                 stop_when: Optional[StopPredicate] = None
                 ) -> CampaignOutcome:
    """Execute a campaign under an executor, with journal middleware.

    ``journal_path`` write-ahead-logs progress (defaulting to the
    resume source, so an interrupted campaign keeps extending the same
    history); ``resume_from`` replays completed runs out of such a
    journal.  The returned payloads are merged by request index —
    independent of executor, worker count, and completion order.

    ``stop_when`` is an optional budget predicate (soak campaigns:
    first-failure / wall-clock).  When it returns a reason the loop
    stops *cleanly*: every journaled run stays valid, a
    ``campaign-stop`` record is appended (not ``campaign-abort`` — no
    error occurred), and the outcome carries the partial payload list
    (completed indices in order) with ``stopped`` set.  Such a journal
    resumes exactly like an interrupted one.
    """
    if checkpoint_every < 1:
        raise ConfigurationError("checkpoint interval must be >= 1")
    if executor is None:
        executor = SerialExecutor()
    requests = campaign.requests()
    completed: Dict[int, Dict[str, object]] = {}
    if resume_from is not None:
        completed = replay_campaign_journal(campaign, resume_from)
        indices = [request.index for request in requests]
        stray = sorted(set(completed) - set(indices))
        if stray:
            raise ConfigurationError(
                f"journal {resume_from} records run indices {stray} "
                f"outside this campaign's grid")
    pending = [request for request in requests
               if request.index not in completed]
    replayed = len(requests) - len(pending)
    target = journal_path or resume_from
    writer: Optional[JournalWriter] = None
    if target is not None:
        mode = "append" if resume_from is not None else "truncate"
        writer = JournalWriter(target, mode=mode)
        if resume_from is None:
            writer.append({"kind": "campaign-start",
                           "campaign": campaign.kind,
                           **campaign.fingerprint()})
    # Executors report failed attempts through an event sink; the
    # driver journals them and counts quarantines (a ``requeued:
    # False`` attempt is a run that exhausted its budget) against the
    # policy's abort budget.
    policy = getattr(executor, "policy", None)
    quarantined = 0

    def on_attempt(record: Dict[str, object]) -> None:
        nonlocal quarantined
        if record.get("requeued") is False:
            quarantined += 1
        if writer is not None:
            writer.append(record)

    if hasattr(executor, "set_event_sink"):
        executor.set_event_sink(on_attempt)
    executed = 0
    stopped: Optional[str] = None
    try:
        for index, payload in executor.map(campaign, pending):
            completed[index] = payload
            executed += 1
            if writer is not None:
                writer.append({"kind": "run-result", "index": index,
                               "result": payload})
                if len(completed) % checkpoint_every == 0:
                    ordered = [completed[i] for i in sorted(completed)]
                    writer.append({"kind": "campaign-progress",
                                   "completed": len(completed),
                                   "digest": record_checksum(ordered)})
            if policy is not None and policy.failures_exceeded(
                    quarantined, len(requests)):
                raise CampaignAborted(
                    f"campaign aborted: {quarantined} run(s) quarantined "
                    f"with {policy.allowed_failures(len(requests))} "
                    f"allowed ({len(completed)}/{len(requests)} "
                    f"completed)", completed=len(completed),
                    quarantined=quarantined)
            if stop_when is not None:
                stopped = stop_when(index, payload)
                if stopped:
                    break
        if stopped is None:
            payloads = [completed[request.index] for request in requests]
        else:
            # Budget stop: a partial grid is the *intended* outcome.
            # Parallel executors may have completed runs past the
            # stopping one; everything journaled is kept.
            payloads = [completed[i] for i in sorted(completed)]
        if writer is not None:
            if stopped is None:
                writer.append({"kind": "campaign-end",
                               **campaign.end_record(payloads)})
            else:
                writer.append({"kind": "campaign-stop",
                               "reason": stopped,
                               "completed": len(completed),
                               "executed": executed})
    except BaseException as exc:
        # Execution died mid-flight (worker crash, abort budget,
        # Ctrl-C, merge of an incomplete grid): leave a campaign-abort
        # record so the journal distinguishes this from a clean end —
        # and stays resumable — then let the exception propagate.
        if writer is not None:
            try:
                writer.append({"kind": "campaign-abort",
                               "error": f"{type(exc).__name__}: {exc}",
                               "completed": len(completed),
                               "executed": executed,
                               "quarantined": quarantined})
            except Exception:  # repro: noqa[EXC402] never mask the cause
                pass
        raise
    finally:
        if writer is not None:
            writer.close()
    return CampaignOutcome(payloads=payloads, replayed=replayed,
                           executed=executed, stopped=stopped)
