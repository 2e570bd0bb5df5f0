"""Tests for the campaign-execution core (:mod:`repro.exec`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import JournalWriter, read_journal
from repro.errors import ConfigurationError, ExecutionError
from repro.exec import (Campaign, ParallelExecutor, RunRequest,
                        SerialExecutor, build_campaign, make_executor,
                        register_campaign, run_campaign, seed_for)


class GridCampaign(Campaign):
    """Tiny deterministic campaign: payload = f(index, seed) only."""

    kind = "test-grid"

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


class ShuffledExecutor:
    """Serial execution, completions yielded in an arbitrary order.

    Models what a parallel executor's nondeterministic completion
    order does to the driver, without needing a process pool.
    """

    workers = 1

    def __init__(self, order):
        self.order = list(order)

    def map(self, campaign, requests):
        by_index = {request.index: request for request in requests}
        for index in self.order:
            if index in by_index:
                request = by_index.pop(index)
                yield request.index, campaign.run_request(request)
        for request in by_index.values():  # order may not cover resumes
            yield request.index, campaign.run_request(request)


class TestSeedFor:
    def test_offsets_campaign_seed_by_index(self):
        assert seed_for(7, 0) == 7
        assert seed_for(7, 3) == 10

    def test_distinct_indices_get_distinct_seeds(self):
        seeds = [seed_for(42, i) for i in range(20)]
        assert len(set(seeds)) == 20


class TestRunRequest:
    def test_round_trips_through_dict(self):
        request = RunRequest(index=4, seed=11, params={"size": 256})
        assert RunRequest.from_dict(request.to_dict()) == request

    def test_is_frozen(self):
        with pytest.raises(AttributeError):
            RunRequest(index=0).index = 1


class TestSerialExecutor:
    def test_yields_in_request_order(self):
        campaign = GridCampaign(runs=4)
        completions = list(SerialExecutor().map(campaign,
                                                campaign.requests()))
        assert [index for index, _ in completions] == [0, 1, 2, 3]

    def test_exceptions_propagate(self):
        # The default error_payload hook raises; it is called inside the
        # handler, so the run's own exception rides along as context.
        class Exploding(GridCampaign):
            def run_request(self, request):
                raise ValueError("boom")
        campaign = Exploding(runs=1)
        with pytest.raises(ExecutionError, match="ValueError: boom") as info:
            list(SerialExecutor().map(campaign, campaign.requests()))
        cause = info.value.__cause__ or info.value.__context__
        assert isinstance(cause, ValueError)
        assert str(cause) == "boom"


class TestMakeExecutor:
    def test_one_worker_is_serial(self):
        assert type(make_executor(1)) is SerialExecutor

    def test_many_workers_is_parallel(self):
        executor = make_executor(3)
        assert type(executor) is ParallelExecutor
        assert executor.workers == 3

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            make_executor(0)

    def test_parallel_needs_two(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(1)


class TestRegistry:
    def test_build_rebuilds_from_spec(self):
        register_campaign(GridCampaign)
        rebuilt = build_campaign("test-grid", {"runs": 2, "seed": 9})
        assert isinstance(rebuilt, GridCampaign)
        assert rebuilt.fingerprint() == {"runs": 2, "seed": 9}

    def test_reregistering_same_class_is_noop(self):
        register_campaign(GridCampaign)
        register_campaign(GridCampaign)

    def test_conflicting_registration_rejected(self):
        register_campaign(GridCampaign)
        class Impostor(Campaign):
            kind = "test-grid"
        with pytest.raises(ConfigurationError, match="already registered"):
            register_campaign(Impostor)

    def test_kindless_campaign_rejected(self):
        class Nameless(Campaign):
            pass
        with pytest.raises(ConfigurationError, match="no campaign kind"):
            register_campaign(Nameless)

    def test_unknown_kind_lists_known(self):
        with pytest.raises(ConfigurationError, match="unknown campaign"):
            build_campaign("no-such-kind", {})


class TestRunCampaign:
    def test_payloads_ordered_by_index(self):
        campaign = GridCampaign(runs=5)
        outcome = run_campaign(campaign)
        assert [p["index"] for p in outcome.payloads] == [0, 1, 2, 3, 4]
        assert outcome.replayed == 0
        assert outcome.executed == 5

    def test_completion_order_never_changes_payloads(self):
        campaign = GridCampaign(runs=5)
        reference = run_campaign(campaign).payloads
        shuffled = run_campaign(
            campaign, executor=ShuffledExecutor([3, 0, 4, 1, 2]))
        assert shuffled.payloads == reference

    def test_checkpoint_interval_validated(self):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            run_campaign(GridCampaign(runs=1), checkpoint_every=0)

    def test_default_error_payload_propagates(self):
        request = RunRequest(index=2, seed=5)
        with pytest.raises(ExecutionError, match="run 2"):
            GridCampaign(runs=3).error_payload(request, "worker died")


class TestCampaignJournal:
    def test_journal_records_protocol_kinds(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")
        run_campaign(GridCampaign(runs=4), journal_path=journal,
                     checkpoint_every=2)
        records = read_journal(journal).records
        kinds = [r["kind"] for r in records]
        assert kinds == ["campaign-start", "run-result", "run-result",
                         "campaign-progress", "run-result", "run-result",
                         "campaign-progress", "campaign-end"]
        assert records[0]["campaign"] == "test-grid"
        assert records[0]["runs"] == 4
        assert records[-1] == {"kind": "campaign-end", "runs": 4}

    def test_resume_skips_completed_runs(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")
        campaign = GridCampaign(runs=4, seed=5)

        class Half(ShuffledExecutor):
            """Stops mid-campaign, out of index order — a crashed
            parallel run leaving a non-prefix journal."""

            def map(self, inner, requests):
                for completion in super().map(inner, requests):
                    yield completion
                    if completion[0] == 0:
                        return
        try:
            run_campaign(campaign, executor=Half([2, 0, 1, 3]),
                         journal_path=journal)
        except KeyError:
            pass  # merge fails: runs 1 and 3 never completed
        resumed = run_campaign(campaign, resume_from=journal)
        assert resumed.replayed == 2
        assert resumed.executed == 2
        assert resumed.payloads == run_campaign(campaign).payloads

    def test_fingerprint_mismatch_refused(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")
        run_campaign(GridCampaign(runs=2, seed=5), journal_path=journal)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            run_campaign(GridCampaign(runs=2, seed=6),
                         resume_from=journal)

    def test_missing_campaign_start_refused(self, tmp_path):
        journal = str(tmp_path / "startless.jsonl")
        writer = JournalWriter(journal, mode="truncate")
        writer.append({"kind": "run-result", "index": 0, "result": {}})
        writer.close()
        with pytest.raises(ConfigurationError, match="campaign-start"):
            run_campaign(GridCampaign(runs=1), resume_from=journal)

    def test_stray_indices_refused(self, tmp_path):
        class SeedOnly(GridCampaign):
            """Fingerprint ignores ``runs`` so grid shrink slips past
            the fingerprint check and must hit the index guard."""
            kind = "test-seed-only"
            def fingerprint(self):
                return {"seed": self.seed}
        journal = str(tmp_path / "grid.jsonl")
        run_campaign(SeedOnly(runs=4, seed=5), journal_path=journal)
        with pytest.raises(ConfigurationError, match="outside"):
            run_campaign(SeedOnly(runs=2, seed=5), resume_from=journal)

    def test_torn_tail_warns_and_resumes(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")
        campaign = GridCampaign(runs=3, seed=5)
        reference = run_campaign(campaign, journal_path=journal).payloads
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"crc": 0, "record": {"kind": "run-res')
        with pytest.warns(RuntimeWarning, match="resuming"):
            resumed = run_campaign(campaign, resume_from=journal)
        assert resumed.payloads == reference
        assert resumed.executed == 0


@settings(max_examples=25, deadline=None)
@given(runs=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=1000),
       data=st.data())
def test_merge_by_index_is_completion_order_invariant(runs, seed, data):
    """Any completion order merges to the serial payload list."""
    order = data.draw(st.permutations(range(runs)))
    campaign = GridCampaign(runs=runs, seed=seed)
    reference = run_campaign(campaign).payloads
    shuffled = run_campaign(campaign, executor=ShuffledExecutor(order))
    assert shuffled.payloads == reference
