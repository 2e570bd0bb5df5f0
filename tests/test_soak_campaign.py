"""The soak campaign on the exec core: golden, resume, and budgets."""

import os

import pytest

from repro.checkpoint import read_journal
from repro.errors import ConfigurationError
from repro.exec import make_executor, run_campaign
from repro.soak import (SoakCampaign, default_space, failing_payloads,
                        render_payloads, soak_budget)
from repro.soak.fuzzer import PlantedBug

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "soak_runs6_seed7.txt")

_SPACE = default_space(0.010)


def _campaign(**kwargs):
    return SoakCampaign(runs=6, seed=7, space=_SPACE, **kwargs)


def _planted():
    return _campaign(planted=PlantedBug("conservation"), planted_index=2)


#: Engine events each golden case executes (seeds 7..12).  Cases 10 and
#: 11 carry device-kill faults, which the soak-fuzz benchmark workload
#: leaves out, so its event pin does not cover them.
GOLDEN_EVENTS = [23215, 32341, 12961, 38300, 11309, 15049]


def _render(workers):
    outcome = run_campaign(_campaign(), executor=make_executor(workers))
    assert [payload["events"] for payload in outcome.payloads] == \
        GOLDEN_EVENTS
    return render_payloads(outcome.payloads)


class TestGolden:
    def test_serial_matches_golden(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert _render(1) + "\n" == golden

    def test_parallel_matches_golden(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert _render(2) + "\n" == golden


class TestCampaignSpec:
    def test_spec_round_trip(self):
        campaign = SoakCampaign(runs=4, seed=7, space=_SPACE,
                                planted=PlantedBug("conservation"),
                                planted_index=2)
        rebuilt = SoakCampaign.from_spec(campaign.spec())
        assert rebuilt.fingerprint() == campaign.fingerprint()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SoakCampaign(runs=0, seed=7)
        with pytest.raises(ConfigurationError):
            SoakCampaign(runs=4, seed=7,
                         planted=PlantedBug("conservation"))
        with pytest.raises(ConfigurationError):
            SoakCampaign(runs=4, seed=7,
                         planted=PlantedBug("conservation"),
                         planted_index=4)

    def test_planted_case_only_at_its_index(self):
        campaign = SoakCampaign(runs=4, seed=7, space=_SPACE,
                                planted=PlantedBug("conservation"),
                                planted_index=2)
        cases = [campaign.case_for(request)
                 for request in campaign.requests()]
        assert [case.planted is not None for case in cases] == \
            [False, False, True, False]


class TestJournalResume:
    def test_resume_is_bit_exact(self, tmp_path):
        journal = str(tmp_path / "soak.jsonl")
        reference = run_campaign(_campaign())
        run_campaign(_campaign(), journal_path=journal, checkpoint_every=1)
        # Drop the campaign-end and the last two run-results so the
        # resume has real work left.
        outcome = read_journal(journal)
        lines = []
        kept = 0
        with open(journal, "r", encoding="utf-8") as handle:
            raw = handle.read().splitlines()
        for line, record in zip(raw, outcome.records):
            kind = record.get("kind")
            if kind == "run-result":
                if kept == 4:
                    break
                kept += 1
            elif kind not in ("campaign-start", "campaign-progress"):
                break
            lines.append(line)
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

        resumed = run_campaign(_campaign(), resume_from=journal)
        assert resumed.replayed == 4
        assert render_payloads(resumed.payloads) == \
            render_payloads(reference.payloads)


class TestBudgets:
    def test_stop_on_failure_writes_campaign_stop(self, tmp_path):
        journal = str(tmp_path / "stop.jsonl")
        outcome = run_campaign(_planted(), journal_path=journal,
                               checkpoint_every=1,
                               stop_when=soak_budget(stop_on_failure=True))
        assert outcome.stopped is not None
        assert "first failure: run 2" in outcome.stopped
        assert outcome.executed == 3
        assert len(outcome.payloads) == 3
        assert len(failing_payloads(outcome.payloads)) == 1
        records = read_journal(journal).records
        assert records[-1]["kind"] == "campaign-stop"
        assert records[-1]["completed"] == 3
        assert outcome.stopped == records[-1]["reason"]

    def test_stopped_journal_resumes_to_completion(self, tmp_path):
        journal = str(tmp_path / "stop.jsonl")
        run_campaign(_planted(), journal_path=journal,
                     stop_when=soak_budget(stop_on_failure=True))
        completed = run_campaign(_planted(), resume_from=journal)
        assert completed.replayed == 3
        assert completed.stopped is None
        assert len(completed.payloads) == 6
        records = read_journal(journal).records
        assert records[-1]["kind"] == "campaign-end"

    def test_wall_clock_budget_stops_cleanly(self, tmp_path):
        journal = str(tmp_path / "wall.jsonl")
        outcome = run_campaign(_campaign(), journal_path=journal,
                               stop_when=soak_budget(max_wall_s=1e-9))
        assert outcome.stopped is not None
        assert "wall-clock budget" in outcome.stopped
        assert outcome.executed == 1  # the stop lands after run 0
        records = read_journal(journal).records
        assert records[-1]["kind"] == "campaign-stop"

    def test_no_budget_is_no_predicate(self):
        assert soak_budget() is None

    def test_runner_validation(self):
        with pytest.raises(ConfigurationError):
            soak_budget(max_wall_s=0.0)
        with pytest.raises(ConfigurationError):
            run_campaign(_campaign(), checkpoint_every=0)
        with pytest.raises(ConfigurationError):
            make_executor(0)
