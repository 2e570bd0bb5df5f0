"""SIGKILL-and-resume check: the chaos journal survives a dead process.

This automates the scenario the write-ahead journal exists for: a
campaign process dies without warning (SIGKILL — no ``atexit``, no
``finally``), leaving the journal with a possibly torn trailing record,
and a fresh process resumes from it.  The check passes only if the
merged report renders **bit-exact** against an uninterrupted campaign —
the property ``python -m repro crash-resume`` asserts in CI.

The torn tail is additionally forced deterministically (a half-written
record is appended after the kill) so the tolerance path is exercised
on every check, not just when the kill happens to land mid-write.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..checkpoint.journal import read_journal
from ..errors import CheckpointError, ConfigurationError
from ..exec.campaign import Campaign
from ..exec.driver import run_campaign
from ..exec.executors import make_executor
from ..reliability.campaign import ReliabilityCampaign
from ..reliability.campaign import render_payloads as render_reliability
from ..soak.campaign import SoakCampaign
from ..soak.campaign import render_payloads as render_soak
from ..soak.fuzzer import default_space
from .runner import ChaosCampaign, ChaosConfig, ChaosReport, ChaosRunner

#: Seconds between journal polls while the campaign subprocess runs.
#: The bounded retry count caps total waiting — no wall-clock deadline
#: arithmetic, so the check stays deterministic in what it *does* even
#: though the kill's landing point depends on scheduling.
_POLL_INTERVAL_S = 0.05
_MAX_POLLS = 1200


def _reliability_campaign(runs: int, seed: int,
                          duration_s: float) -> Campaign:
    return ReliabilityCampaign(scenario="device-kill", policies=("joint",),
                               runs=runs, seed=seed, duration_s=duration_s)


def _soak_campaign(runs: int, seed: int, duration_s: float) -> Campaign:
    # Both sides build the space through default_space(duration), or
    # the journal fingerprint check refuses the resume.
    return SoakCampaign(runs=runs, seed=seed,
                        space=default_space(duration_s))


@dataclass(frozen=True)
class CrashResumeKind:
    """How the check drives one campaign kind."""

    #: ``python -m repro`` arguments before the shared campaign flags.
    subcommand: Tuple[str, ...]
    #: ``(runs, seed, duration_s)`` -> the campaign the subcommand runs.
    build: Callable[[int, int, float], Campaign]
    #: Merged payloads -> the report compared bit-exact.
    render: Callable[[List[Dict[str, object]]], str]


#: Campaign kinds this harness can kill and resume (the CLI validates
#: its ``--campaign`` flag against this, not the full kind registry).
CAMPAIGNS: Dict[str, CrashResumeKind] = {
    "chaos": CrashResumeKind(
        ("chaos",),
        lambda runs, seed, duration_s: ChaosCampaign(ChaosRunner(
            runs=runs, seed=seed,
            config=ChaosConfig(duration_s=duration_s))),
        lambda payloads: ChaosReport.from_payloads(payloads).render()),
    # Single-policy grid: `runs` keeps its meaning of total runs.
    "reliability": CrashResumeKind(
        ("reliability", "--scenario", "device-kill", "--policies",
         "joint"), _reliability_campaign, render_reliability),
    # No shrinking in the subprocess: the kill must land mid-grid, not
    # mid-shrink, and the resume compares grid reports only.
    "soak": CrashResumeKind(("soak", "--no-shrink"), _soak_campaign,
                            render_soak),
}


@dataclass
class CrashResumeOutcome:
    """What the crash-resume check observed."""

    runs: int
    seed: int
    #: Campaign kind the check exercised (a key of :data:`CAMPAIGNS`).
    campaign: str
    #: run-result records intact in the journal when the kill landed.
    journaled_before_kill: int
    #: Whether the subprocess was actually SIGKILLed mid-flight (False
    #: when it finished before the poll caught it — the resume then
    #: replays every run, which still must match).
    killed: bool
    #: Runs the resumed campaign replayed from the journal.
    replayed_runs: int
    #: Rendered report of the resumed campaign.
    resumed: str
    #: Rendered report of the uninterrupted reference campaign.
    reference: str

    @property
    def match(self) -> bool:
        """Whether the merged report is bit-exact vs the reference."""
        return self.resumed == self.reference

    def render(self) -> str:
        """One-line verdict for the CLI."""
        verdict = "bit-exact" if self.match else "MISMATCH"
        how = "SIGKILLed" if self.killed else "finished before the kill"
        return (f"crash-resume[{self.campaign}]: {self.runs} runs "
                f"(seed {self.seed}); "
                f"campaign {how} with {self.journaled_before_kill} "
                f"journaled run(s); resume replayed {self.replayed_runs} "
                f"and re-ran {self.runs - self.replayed_runs}; "
                f"merged report {verdict} vs uninterrupted reference")


def _count_run_results(journal_path: str) -> int:
    """Intact run-result records currently in the journal."""
    if not os.path.exists(journal_path):
        return 0
    return len(read_journal(journal_path,
                            tolerate_torn_tail=True).of_kind("run-result"))


def run_crash_resume_check(runs: int = 6, seed: int = 7,
                           duration_s: float = 0.02,
                           journal_path: Optional[str] = None,
                           kill_after_runs: int = 2,
                           workers: int = 1,
                           campaign: str = "chaos") -> CrashResumeOutcome:
    """SIGKILL a campaign subprocess mid-flight and resume its journal.

    Launches ``python -m repro <campaign> --journal ...`` as a
    subprocess, polls the journal until ``kill_after_runs`` run-results
    are intact, SIGKILLs it, deterministically appends a torn record,
    resumes the campaign in-process from the journal, and compares the
    merged report against an uninterrupted reference campaign.  The
    journal goes to a fresh temp directory unless ``journal_path`` is
    given.  ``kill_after_runs`` must lie in ``[1, runs - 1]`` so the
    kill can land mid-grid; anything else is refused before a
    subprocess starts.

    ``campaign`` selects the campaign kind under test (``chaos``, a
    single-policy ``reliability`` grid, or a shrink-free ``soak``
    fuzz) — the kill/resume machinery is identical because every
    campaign shares the journal protocol.

    ``workers`` applies to the killed campaign and the resume; the
    reference always runs serially, so with ``workers > 1`` the check
    additionally proves the parallel merged report is bit-exact against
    the serial one.  A parallel journal's run-results may land out of
    index order — the merge is by index, so resume handles the gaps.
    """
    if campaign not in CAMPAIGNS:
        raise CheckpointError(
            f"crash-resume does not support campaign {campaign!r} "
            f"(known: {', '.join(CAMPAIGNS)})")
    if not 1 <= kill_after_runs < runs:
        raise ConfigurationError(
            f"a kill after {kill_after_runs} run(s) cannot land mid-grid "
            f"of {runs} run(s): need at least 2 runs and a kill after "
            f"1 to runs - 1")
    kind = CAMPAIGNS[campaign]
    if journal_path is None:
        journal_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-crash-resume-"),
            "journal.jsonl")
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "repro", *kind.subcommand,
               "--runs", str(runs), "--seed", str(seed),
               "--duration", str(duration_s), "--workers", str(workers),
               "--journal", journal_path, "--checkpoint-every", "1"]
    process = subprocess.Popen(command, env=env,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    killed = False
    try:
        for _ in range(_MAX_POLLS):
            if _count_run_results(journal_path) >= kill_after_runs:
                break
            if process.poll() is not None:
                break
            time.sleep(_POLL_INTERVAL_S)
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
            killed = True
    finally:
        process.wait()
    if not os.path.exists(journal_path):
        raise CheckpointError(
            f"campaign subprocess exited (code {process.returncode}) "
            f"without writing {journal_path}")
    journaled = _count_run_results(journal_path)
    # Force the torn-write path: whatever state the kill left the file
    # in, the resume must shrug off a half-written final record.
    with open(journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"crc": 0, "record": {"kind": "run-res')
    with warnings.catch_warnings():
        # The torn tail we just planted warns by design.
        warnings.simplefilter("ignore", RuntimeWarning)
        resumed = run_campaign(kind.build(runs, seed, duration_s),
                               executor=make_executor(workers),
                               resume_from=journal_path,
                               checkpoint_every=1)
    reference = run_campaign(kind.build(runs, seed, duration_s))
    return CrashResumeOutcome(
        runs=runs, seed=seed, campaign=campaign,
        journaled_before_kill=journaled,
        killed=killed, replayed_runs=resumed.replayed,
        resumed=kind.render(resumed.payloads),
        reference=kind.render(reference.payloads))
