"""The layered campaign-execution core.

Every batch of simulations in this repository — chaos campaigns,
resilience scenario runs, the figure-2 packet-size sweep, experiment
suites — used to carry its own run loop, its own journal plumbing, and
its own merge logic.  This package is the single replacement:

* :mod:`repro.exec.scenario` — the :class:`Scenario` protocol
  (build → ``prepare`` → ``run`` → ``collect``) one unit of simulated
  work implements, and :func:`seed_for`, the one derivation of a
  per-run seed from a campaign seed.
* :mod:`repro.exec.campaign` — a :class:`Campaign` expands a JSON-clean
  spec into an ordered list of :class:`RunRequest`\\ s and turns each
  into a JSON-clean result payload; a kind registry lets worker
  processes rebuild campaigns from their specs alone.
* :mod:`repro.exec.executors` — the two executors:
  :class:`SerialExecutor` (in-process, the default) and
  :class:`ParallelExecutor` (worker processes on raw pipes, worker-side
  campaign construction, never pickling an engine/queue/RNG).  Both
  isolate each run's crash, enforce a :class:`SupervisionPolicy`, and
  quarantine a run that exhausts its attempts through the campaign's
  ``error_payload`` hook; the parallel one also kills hung workers at
  their deadline and rebuilds the pool around dead ones.
* :mod:`repro.exec.driver` — :func:`run_campaign`, which owns the one
  remaining campaign loop: journal middleware (``campaign-start``
  fingerprint, ``run-result`` per completion, ``campaign-progress``
  digests, ``run-attempt``/``campaign-abort`` supervision records,
  ``campaign-end``), journal replay on resume, and the deterministic
  merge of results by request index regardless of completion order.
* :mod:`repro.exec.supervisor` — what the executors share:
  :class:`SupervisionPolicy` (per-run deadlines, bounded seed-derived
  retry, abort budget; inert by default), the one wall clock, and the
  ``run-attempt`` record vocabulary.
* :mod:`repro.exec.faultinject` — a campaign wrapper that makes
  workers hang, die, or return garbage on a declared or seeded
  schedule, so the supervisor is testable under its own rules.

Determinism contract: a campaign's merged payload list depends only on
its spec and seed — never on the executor, worker count, completion
order, or how many times supervision had to retry a run.
``--workers 4`` and ``--workers 1`` render byte-identical reports.
"""

from .._lazy import lazy_exports

__all__ = [
    "Campaign",
    "CampaignOutcome",
    "Executor",
    "FaultInjectedCampaign",
    "FaultPlan",
    "ParallelExecutor",
    "RunRequest",
    "Scenario",
    "SerialExecutor",
    "StopPredicate",
    "SupervisionPolicy",
    "WorkerFault",
    "build_campaign",
    "campaign_kinds",
    "exception_payload",
    "make_executor",
    "register_campaign",
    "run_campaign",
    "seed_for",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "Campaign": "campaign",
    "RunRequest": "campaign",
    "build_campaign": "campaign",
    "campaign_kinds": "campaign",
    "register_campaign": "campaign",
    "CampaignOutcome": "driver",
    "StopPredicate": "driver",
    "run_campaign": "driver",
    "exception_payload": "errinfo",
    "Executor": "executors",
    "ParallelExecutor": "executors",
    "SerialExecutor": "executors",
    "make_executor": "executors",
    "FaultInjectedCampaign": "faultinject",
    "FaultPlan": "faultinject",
    "WorkerFault": "faultinject",
    "Scenario": "scenario",
    "seed_for": "scenario",
    "SupervisionPolicy": "supervisor",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
