"""Run supervision: deadlines, retries, dead-worker recovery, abort.

The supervisor's contract is that it changes *when and where* a request
executes, never *what it produces*: every test here compares a
supervised (and usually sabotaged) campaign against an unfaulted
serial reference and expects bit-exact payloads — plus the journal
trail (``run-attempt`` / ``campaign-abort``) that makes the recovery
auditable and resumable.

Process-spawning tests use the chaos campaign (registered, so workers
can rebuild it from JSON); in-process tests use a local grid campaign.
"""

import pytest

from repro.chaos.runner import ChaosConfig, ChaosRunner
from repro.checkpoint import read_journal
from repro.errors import CampaignAborted, ConfigurationError, ExecutionError
from repro.exec import (Campaign, FaultInjectedCampaign, FaultPlan,
                        ParallelExecutor, RunRequest, SerialExecutor,
                        SupervisionPolicy, WorkerFault, make_executor,
                        register_campaign, run_campaign, seed_for)
from repro.exec.driver import replay_campaign_journal

#: Short enough for CI, long enough for faults and a migration to land.
_DURATION_S = 0.01

#: Generous per-run deadline: only ``hang`` faults ever reach it.
_TIMEOUT_S = 60.0


class QuarantineGrid(Campaign):
    """Tiny deterministic campaign with a violation vocabulary."""

    kind = "test-quarantine-grid"

    def __init__(self, runs, seed=3):
        self.runs = runs
        self.seed = seed

    def fingerprint(self):
        return {"runs": self.runs, "seed": self.seed}

    def spec(self):
        return self.fingerprint()

    @classmethod
    def from_spec(cls, spec):
        return cls(int(spec["runs"]), int(spec["seed"]))

    def requests(self):
        return [RunRequest(index=i, seed=seed_for(self.seed, i))
                for i in range(self.runs)]

    def run_request(self, request):
        return {"index": request.index, "square": request.seed ** 2}

    def error_payload(self, request, error, details=None):
        return {"index": request.index, "scenario-error": error}


register_campaign(QuarantineGrid)


def _policy(**overrides):
    defaults = dict(run_timeout_s=_TIMEOUT_S, max_attempts=2,
                    backoff_base_s=0.01)
    defaults.update(overrides)
    return SupervisionPolicy(**defaults)


def _chaos_campaign(runs=3, seed=11, faults=()):
    from repro.chaos.runner import ChaosCampaign
    runner = ChaosRunner(runs=runs, seed=seed,
                         config=ChaosConfig(duration_s=_DURATION_S))
    inner = ChaosCampaign(runner)
    if faults:
        return FaultInjectedCampaign(inner, FaultPlan.parse_all(faults))
    return inner


class TestSupervisionPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(run_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(max_failures=-1)
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(jitter_frac=1.0)

    def test_backoff_is_seed_derived_and_capped(self):
        policy = SupervisionPolicy(backoff_base_s=0.1,
                                   backoff_multiplier=2.0,
                                   backoff_cap_s=0.15, jitter_frac=0.0)
        assert policy.backoff_s(7, 1) == pytest.approx(0.1)
        assert policy.backoff_s(7, 2) == pytest.approx(0.15)
        jittered = SupervisionPolicy(backoff_base_s=0.1, jitter_frac=0.2)
        assert jittered.backoff_s(7, 1) == jittered.backoff_s(7, 1)
        assert jittered.backoff_s(7, 1) != jittered.backoff_s(8, 1)
        assert 0.08 <= jittered.backoff_s(7, 1) <= 0.12

    def test_failure_budget_count_and_fraction(self):
        count = SupervisionPolicy(max_failures=2)
        assert count.allowed_failures(100) == 2
        assert not count.failures_exceeded(2, 100)
        assert count.failures_exceeded(3, 100)
        fraction = SupervisionPolicy(max_failures=0.25)
        assert fraction.allowed_failures(8) == 2
        unlimited = SupervisionPolicy()
        assert unlimited.allowed_failures(8) is None
        assert not unlimited.failures_exceeded(8, 8)


class TestMakeExecutorPolicy:
    """``make_executor`` picks on worker count alone and hands the
    policy through; ``None`` stands for the inert default."""

    @staticmethod
    def _check(policy, expected):
        serial = make_executor(1, policy)
        assert type(serial) is SerialExecutor
        assert serial.policy == expected
        parallel = make_executor(2, policy)
        assert type(parallel) is ParallelExecutor
        assert parallel.workers == 2
        assert parallel.policy == expected

    def test_none_policy_keeps_plain_executors(self):
        self._check(None, SupervisionPolicy())

    def test_inert_policy_keeps_plain_executors(self):
        self._check(SupervisionPolicy(), SupervisionPolicy())

    def test_active_policy_selects_supervised(self):
        policy = _policy()
        self._check(policy, policy)


class TestFaultPlan:
    def test_parse_round_trip(self):
        fault = WorkerFault.parse("3:die:1,2")
        assert fault == WorkerFault(index=3, fault="die", attempts=(1, 2))
        assert WorkerFault.from_dict(fault.to_dict()) == fault
        plan = FaultPlan.parse_all(["0:hang", "2:error:1"])
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerFault.parse("nonsense")
        with pytest.raises(ConfigurationError):
            WorkerFault.parse("0:frobnicate")
        with pytest.raises(ConfigurationError):
            WorkerFault.parse("x:die")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse_all(["0:die", "0:hang"])

    def test_generated_plan_is_pure_function_of_seed(self):
        first = FaultPlan.generate(runs=40, seed=9)
        second = FaultPlan.generate(runs=40, seed=9)
        assert first == second
        assert first != FaultPlan.generate(runs=40, seed=10)
        # Generated plans must terminate under any executor.
        assert all(f.fault != "hang" for f in first.faults)


class TestSerialSupervision:
    def test_transient_error_is_retried_to_the_reference_payloads(self):
        reference = run_campaign(QuarantineGrid(4)).payloads
        campaign = FaultInjectedCampaign(QuarantineGrid(4),
                                         FaultPlan.parse_all(["2:error:1"]))
        outcome = run_campaign(campaign, executor=make_executor(1, _policy()))
        assert outcome.payloads == reference

    def test_exhausted_attempts_quarantine_through_error_payload(self):
        campaign = FaultInjectedCampaign(QuarantineGrid(3),
                                         FaultPlan.parse_all(["1:error"]))
        outcome = run_campaign(campaign, executor=make_executor(1, _policy()))
        assert "scenario-error" in outcome.payloads[1]
        assert "injected worker error" in outcome.payloads[1]["scenario-error"]

    def test_garbage_result_is_a_failed_attempt(self):
        reference = run_campaign(QuarantineGrid(3)).payloads
        campaign = FaultInjectedCampaign(
            QuarantineGrid(3), FaultPlan.parse_all(["0:garbage:1"]))
        outcome = run_campaign(campaign, executor=make_executor(1, _policy()))
        assert outcome.payloads == reference

    def test_default_error_payload_still_propagates(self):
        campaign = FaultInjectedCampaign(
            _PlainGrid(2), FaultPlan.parse_all(["0:error"]))
        with pytest.raises(ExecutionError, match="run 0"):
            run_campaign(campaign, executor=make_executor(1, _policy()))

    def test_keyboard_interrupt_leaves_a_resumable_journal(self, tmp_path):
        journal = str(tmp_path / "interrupted.jsonl")
        campaign = QuarantineGrid(4, seed=5)

        class InterruptingExecutor(SerialExecutor):
            def map(self, inner, requests):
                for completion in super().map(inner, requests):
                    yield completion
                    if completion[0] == 1:
                        raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            run_campaign(campaign, executor=InterruptingExecutor(),
                         journal_path=journal)
        records = read_journal(journal).records
        assert records[-1]["kind"] == "campaign-abort"
        assert records[-1]["error"].startswith("KeyboardInterrupt")
        assert records[-1]["completed"] == 2
        resumed = run_campaign(campaign, resume_from=journal)
        assert resumed.replayed == 2
        assert resumed.payloads == run_campaign(campaign).payloads


class _PlainGrid(QuarantineGrid):
    """QuarantineGrid without the violation vocabulary."""

    kind = "test-plain-grid"

    def error_payload(self, request, error, details=None):
        return Campaign.error_payload(self, request, error,
                                      details=details)


register_campaign(_PlainGrid)


class TestParallelSupervision:
    def test_clean_supervised_parallel_matches_serial(self):
        campaign = _chaos_campaign(runs=3)
        reference = run_campaign(campaign).payloads
        outcome = run_campaign(campaign, executor=make_executor(2, _policy()))
        assert outcome.payloads == reference

    def test_worker_killed_mid_run_is_retried_bit_exact(self, tmp_path):
        # Attempt 1 of run 1 dies with the OOM-kill exit code; the
        # supervisor rebuilds the pool, retries from the same seed, and
        # the merged report is the unfaulted serial reference.
        journal = str(tmp_path / "die.jsonl")
        reference = run_campaign(_chaos_campaign(runs=3)).payloads
        campaign = _chaos_campaign(runs=3, faults=["1:die:1"])
        outcome = run_campaign(campaign,
                               executor=make_executor(2, _policy()),
                               journal_path=journal)
        assert outcome.payloads == reference
        attempts = [r for r in read_journal(journal).records
                    if r["kind"] == "run-attempt"]
        assert len(attempts) == 1
        assert attempts[0]["index"] == 1
        assert attempts[0]["outcome"] == "worker-death"
        assert attempts[0]["requeued"] is True

    def test_worker_killed_campaign_resumes_bit_exact(self, tmp_path):
        journal = str(tmp_path / "resume.jsonl")
        reference = run_campaign(_chaos_campaign(runs=3)).payloads
        campaign = _chaos_campaign(runs=3, faults=["1:die:1"])
        run_campaign(campaign, executor=make_executor(2, _policy()),
                     journal_path=journal)
        resumed = run_campaign(campaign, resume_from=journal)
        assert resumed.replayed == 3
        assert resumed.executed == 0
        assert resumed.payloads == reference

    def test_run_attempt_records_ride_through_replay(self, tmp_path):
        journal = str(tmp_path / "attempts.jsonl")
        campaign = _chaos_campaign(runs=3, faults=["1:die:1"])
        run_campaign(campaign, executor=make_executor(2, _policy()),
                     journal_path=journal)
        # replay_campaign_journal sees the run-attempt records and
        # returns exactly the completed payloads, unperturbed.
        completed = replay_campaign_journal(campaign, journal)
        assert sorted(completed) == [0, 1, 2]
        assert completed[1] == run_campaign(_chaos_campaign(3)).payloads[1]

    def test_unrecoverable_death_quarantines_as_scenario_error(self):
        campaign = _chaos_campaign(runs=3, faults=["2:die"])
        outcome = run_campaign(campaign, executor=make_executor(2, _policy()))
        violations = outcome.payloads[2]["violations"]
        assert len(violations) == 1
        assert violations[0]["invariant"] == "scenario-error"
        assert "worker" in violations[0]["detail"]

    def test_quarantine_renders_identically_serial_and_parallel(self):
        # The quarantined payload is built from configured values only,
        # so the serial and parallel executors must produce
        # byte-identical scenario-error records.
        campaign = _chaos_campaign(runs=2, faults=["0:error"])
        serial = run_campaign(campaign, executor=make_executor(1, _policy()))
        parallel = run_campaign(campaign,
                                executor=make_executor(2, _policy()))
        assert parallel.payloads == serial.payloads
        violations = serial.payloads[0]["violations"]
        assert violations[0]["invariant"] == "scenario-error"

    def test_hung_worker_is_killed_at_the_deadline(self):
        reference = run_campaign(QuarantineGrid(3)).payloads
        campaign = FaultInjectedCampaign(QuarantineGrid(3),
                                         FaultPlan.parse_all(["0:hang"]))
        policy = _policy(run_timeout_s=1.0)
        outcome = run_campaign(campaign, executor=make_executor(2, policy))
        assert "timeout" in outcome.payloads[0]["scenario-error"]
        assert outcome.payloads[1:] == reference[1:]

    def test_default_policy_quarantines_a_killed_worker(self):
        # No policy at all: the inert default still attributes the
        # dead worker's run, quarantines it, and finishes the campaign.
        reference = run_campaign(_chaos_campaign(runs=3)).payloads
        campaign = _chaos_campaign(runs=3, faults=["1:die"])
        outcome = run_campaign(campaign, executor=make_executor(2))
        violations = outcome.payloads[1]["violations"]
        assert [v["invariant"] for v in violations] == ["scenario-error"]
        assert "worker exited with code 137" in violations[0]["detail"]
        assert outcome.payloads[0] == reference[0]
        assert outcome.payloads[2] == reference[2]

    def test_garbage_worker_result_is_retried(self):
        reference = run_campaign(QuarantineGrid(3)).payloads
        campaign = FaultInjectedCampaign(
            QuarantineGrid(3), FaultPlan.parse_all(["1:garbage:1"]))
        outcome = run_campaign(campaign, executor=make_executor(2, _policy()))
        assert outcome.payloads == reference


class TestAbortBudget:
    def test_budget_blown_raises_and_journals_campaign_abort(self, tmp_path):
        journal = str(tmp_path / "abort.jsonl")
        campaign = FaultInjectedCampaign(
            QuarantineGrid(4), FaultPlan.parse_all(["0:error", "1:error"]))
        policy = _policy(max_attempts=1, max_failures=0)
        with pytest.raises(CampaignAborted) as excinfo:
            run_campaign(campaign, executor=make_executor(1, policy),
                         journal_path=journal)
        assert excinfo.value.quarantined == 1
        records = read_journal(journal).records
        assert records[-1]["kind"] == "campaign-abort"
        assert "CampaignAborted" in records[-1]["error"]
        assert records[-1]["quarantined"] == 1

    def test_budget_with_headroom_completes(self):
        campaign = FaultInjectedCampaign(
            QuarantineGrid(4), FaultPlan.parse_all(["0:error"]))
        policy = _policy(max_attempts=1, max_failures=0.5)
        outcome = run_campaign(campaign, executor=make_executor(1, policy))
        assert "scenario-error" in outcome.payloads[0]

    def test_aborted_campaign_resumes_to_completion(self, tmp_path):
        # An aborted campaign's journal replays everything it recorded
        # — including the quarantined run's scenario-error payload,
        # which is a real result — and completes the rest of the grid.
        journal = str(tmp_path / "abort-resume.jsonl")
        reference = run_campaign(QuarantineGrid(4)).payloads
        poisoned = FaultInjectedCampaign(
            QuarantineGrid(4), FaultPlan.parse_all(["1:error"]))
        with pytest.raises(CampaignAborted):
            run_campaign(poisoned,
                         executor=make_executor(1, _policy(
                             max_attempts=1, max_failures=0)),
                         journal_path=journal)
        resumed = run_campaign(poisoned,
                               executor=make_executor(1, _policy()),
                               resume_from=journal)
        assert resumed.replayed == 2  # run 0 and the quarantined run 1
        assert "scenario-error" in resumed.payloads[1]
        assert resumed.payloads[0] == reference[0]
        assert resumed.payloads[2:] == reference[2:]


class TestStructuredQuarantineDetails:
    """Quarantined scenario-errors carry a structured traceback payload
    that is bit-exact across every executor (harness frames filtered)."""

    def _quarantine_violation(self, payload):
        violations = [v for v in payload["violations"]
                      if v["invariant"] == "scenario-error"]
        assert len(violations) == 1
        return violations[0]

    def test_supervised_serial_quarantine_carries_frames(self):
        campaign = _chaos_campaign(runs=2, faults=["1:error"])
        outcome = run_campaign(campaign,
                               executor=make_executor(1, _policy()))
        violation = self._quarantine_violation(outcome.payloads[1])
        data = violation["data"]
        assert data["type"] == "ExecutionError"
        assert "injected worker error" in data["message"]
        files = [frame["file"] for frame in data["frames"]]
        # The raise site (faultinject) is kept; the executor harness
        # frames are filtered so serial == parallel stays bit-exact.
        assert any(f.endswith("faultinject.py") for f in files)
        assert not any(f.endswith("supervisor.py")
                       or f.endswith("executors.py") for f in files)

    def test_quarantine_details_identical_across_executors(self):
        campaign = _chaos_campaign(runs=2, faults=["1:error"])
        serial = run_campaign(campaign,
                              executor=make_executor(1, _policy()))
        parallel = run_campaign(campaign,
                                executor=make_executor(2, _policy()))
        assert serial.payloads == parallel.payloads

    def test_plain_parallel_error_payload_carries_frames(self):
        # The inert default policy forwards the same structured payload.
        campaign = _chaos_campaign(runs=2, faults=["0:error"])
        outcome = run_campaign(campaign, executor=make_executor(2, None))
        violation = self._quarantine_violation(outcome.payloads[0])
        data = violation["data"]
        assert data["type"] == "ExecutionError"
        assert any(frame["file"].endswith("faultinject.py")
                   for frame in data["frames"])

    def test_worker_death_quarantine_has_no_details(self):
        # A dead worker leaves no raise site to report.
        campaign = _chaos_campaign(runs=2, faults=["1:die"])
        outcome = run_campaign(campaign,
                               executor=make_executor(2, _policy()))
        violation = self._quarantine_violation(outcome.payloads[1])
        assert "data" not in violation
