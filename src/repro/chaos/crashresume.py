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
from typing import Dict, Optional, Tuple

from ..checkpoint.journal import read_journal
from ..cli import build_parser
from ..errors import CheckpointError, ConfigurationError
from ..exec.driver import run_campaign
from ..exec.executors import make_executor

#: Seconds between journal polls while the campaign subprocess runs.
#: The bounded retry count caps total waiting — no wall-clock deadline
#: arithmetic, so the check stays deterministic in what it *does* even
#: though the kill's landing point depends on scheduling.
_POLL_INTERVAL_S = 0.05
_MAX_POLLS = 1200

#: Campaign kinds this harness can kill and resume: the ``python -m
#: repro`` arguments before the shared ``--runs``/``--seed``/
#: ``--duration`` flags.  The check parses the same argv with the CLI's
#: own parser for the in-process resume and reference, so both sides
#: build one campaign and share its journal fingerprint.
CAMPAIGNS: Dict[str, Tuple[str, ...]] = {
    "chaos": ("chaos",),
    # Single-policy grid: `runs` keeps its meaning of total runs.
    "reliability": ("reliability", "--scenario", "device-kill",
                    "--policies", "joint"),
    # No shrinking in the subprocess: the kill must land mid-grid, not
    # mid-shrink, and the resume compares grid reports only.
    "soak": ("soak", "--no-shrink"),
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
    campaign shares the journal protocol.  The subprocess and the
    in-process resume and reference all build the campaign from one
    argv (:data:`CAMPAIGNS`) through :func:`repro.cli.build_parser`.

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
    argv = [*CAMPAIGNS[campaign], "--runs", str(runs), "--seed",
            str(seed), "--duration", str(duration_s)]
    args = build_parser().parse_args(argv)
    # Built before anything starts, so a bad value fails fast.
    built = args.make_campaign(args)
    if journal_path is None:
        journal_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-crash-resume-"),
            "journal.jsonl")
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "repro", *argv,
               "--workers", str(workers), "--journal", journal_path,
               "--checkpoint-every", "1"]
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
        resumed = run_campaign(built, executor=make_executor(workers),
                               resume_from=journal_path,
                               checkpoint_every=1)
    reference = run_campaign(built)
    return CrashResumeOutcome(
        runs=runs, seed=seed, campaign=campaign,
        journaled_before_kill=journaled,
        killed=killed, replayed_runs=resumed.replayed,
        resumed=args.render(args, resumed.payloads),
        reference=args.render(args, reference.payloads))
