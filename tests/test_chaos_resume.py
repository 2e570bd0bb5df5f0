"""Campaign-level journal resume: replay completed runs, redo the rest."""

import os
import signal

import pytest

from repro.chaos.crashresume import CAMPAIGNS, run_crash_resume_check
from repro.chaos.runner import ChaosCampaign, ChaosReport, ChaosRunner
from repro.chaos.schedule import ChaosConfig
from repro.checkpoint import read_journal
from repro.errors import ConfigurationError
from repro.exec import run_campaign

_CONFIG = ChaosConfig(duration_s=0.01)


def _campaign(seed=11):
    return ChaosCampaign(ChaosRunner(runs=4, seed=seed, config=_CONFIG))


def _render(outcome):
    return ChaosReport.from_payloads(outcome.payloads).render()


def _truncate_after_results(path, keep):
    """Rewrite the journal with only campaign-start + ``keep`` results."""
    outcome = read_journal(path)
    kept = 0
    lines = []
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read().splitlines()
    for line, record in zip(raw, outcome.records):
        kind = record.get("kind")
        if kind == "run-result":
            if kept == keep:
                break
            kept += 1
        elif kind not in ("campaign-start", "campaign-progress"):
            break
        lines.append(line)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


class TestCampaignResume:
    def test_resume_is_bit_exact_and_counts_replays(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        reference = run_campaign(_campaign())
        run_campaign(_campaign(), journal_path=journal, checkpoint_every=1)
        _truncate_after_results(journal, keep=2)

        resumed = run_campaign(_campaign(), resume_from=journal)
        assert resumed.replayed == 2
        assert _render(resumed) == _render(reference)
        # The rewritten journal holds the full campaign again.
        kinds = [r["kind"] for r in read_journal(journal).records]
        assert kinds.count("run-result") == 4
        assert kinds[-1] == "campaign-end"

    def test_full_journal_resume_replays_everything(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        reference = run_campaign(_campaign(), journal_path=journal)
        resumed = run_campaign(_campaign(), resume_from=journal)
        assert _render(resumed) == _render(reference)
        assert resumed.replayed == 4

    def test_torn_tail_resumes_with_warning(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        reference = run_campaign(_campaign(), journal_path=journal,
                                 checkpoint_every=1)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"crc": 3, "record": {"kind": "run-res')
        with pytest.warns(RuntimeWarning, match="resuming from the last"):
            resumed = run_campaign(_campaign(), resume_from=journal)
        assert _render(resumed) == _render(reference)

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(_campaign(), journal_path=journal)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            run_campaign(_campaign(seed=99), resume_from=journal)

    def test_journal_without_campaign_start_rejected(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(_campaign(), journal_path=journal)
        with open(journal, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[1:]) + "\n")
        with pytest.raises(ConfigurationError):
            run_campaign(_campaign(), resume_from=journal)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                    reason="requires POSIX SIGKILL")
class TestCrashResumeSmoke:
    # The subprocess runs `python -m repro <kind>`; the resume and the
    # reference are built in-process from the same argv, so a match
    # also shows that both sides build one campaign.
    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_sigkilled_campaign_resumes_bit_exact(self, tmp_path,
                                                  campaign):
        outcome = run_crash_resume_check(
            runs=4, seed=7, duration_s=0.01,
            journal_path=str(tmp_path / "journal.jsonl"),
            kill_after_runs=1, campaign=campaign)
        assert outcome.killed
        assert outcome.journaled_before_kill >= 1
        assert outcome.replayed_runs == outcome.journaled_before_kill
        assert outcome.match, outcome.render()
        assert os.path.exists(str(tmp_path / "journal.jsonl"))
