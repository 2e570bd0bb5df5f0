"""Journal torn-tail recovery under the parallel executor with retries.

The serial executor's torn-tail path is pinned by
``tests/test_chaos_resume.py``; this module pins the same guarantees
when the journal was written (and is resumed) by a
:class:`~repro.exec.ParallelExecutor` with an active policy — whose
completions can land out of index order and whose attempt records
interleave with run-results — including a SIGKILL landing while the
journal is mid-append.
"""

import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.chaos.runner import ChaosCampaign, ChaosRunner
from repro.chaos.schedule import ChaosConfig
from repro.checkpoint import read_journal
from repro.exec import SupervisionPolicy, make_executor, run_campaign

_CONFIG = ChaosConfig(duration_s=0.01)
_POLICY = SupervisionPolicy(run_timeout_s=60.0, max_attempts=2,
                            backoff_base_s=0.01)
_POLL_INTERVAL_S = 0.05
_MAX_POLLS = 600


def _campaign(runs=4, seed=11):
    return ChaosCampaign(ChaosRunner(runs=runs, seed=seed,
                                     config=_CONFIG))


def _truncate_to_results(journal, keep):
    """Keep campaign-start/progress and the first ``keep`` results."""
    outcome = read_journal(journal)
    with open(journal, "r", encoding="utf-8") as handle:
        raw = handle.read().splitlines()
    kept = 0
    lines = []
    for line, record in zip(raw, outcome.records):
        kind = record.get("kind")
        if kind == "run-result":
            if kept == keep:
                break
            kept += 1
        elif kind not in ("campaign-start", "campaign-progress",
                          "run-attempt"):
            break
        lines.append(line)
    with open(journal, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _children(pid):
    """Pids whose parent is ``pid`` (read from ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _repro_env():
    src_root = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _append_torn_record(journal):
    """Plant a half-written record — a write cut off mid-append."""
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write('{"crc": 3, "record": {"kind": "run-res')


class TestSupervisedParallelTornTail:
    def test_torn_tail_resumes_bit_exact(self, tmp_path):
        journal = str(tmp_path / "supervised.jsonl")
        reference = run_campaign(_campaign()).payloads
        run_campaign(_campaign(), executor=make_executor(2, _POLICY),
                     journal_path=journal, checkpoint_every=1)
        _truncate_to_results(journal, keep=2)
        _append_torn_record(journal)

        resumed = None
        with pytest.warns(RuntimeWarning, match="resuming from the last"):
            resumed = run_campaign(_campaign(),
                                   executor=make_executor(2, _POLICY),
                                   resume_from=journal)
        assert resumed.replayed == 2
        assert resumed.payloads == reference
        # The rewritten journal carries the full campaign again.
        kinds = [r["kind"] for r in read_journal(journal).records]
        assert kinds.count("run-result") == 4
        assert kinds[-1] == "campaign-end"

    def test_torn_tail_fresh_journal_not_tolerated(self, tmp_path):
        # The tolerance is a resume-path property; a torn tail in a
        # journal being *written* (no resume) must still fail loudly.
        journal = str(tmp_path / "fresh.jsonl")
        run_campaign(_campaign(), executor=make_executor(2, _POLICY),
                     journal_path=journal)
        with open(journal, "r", encoding="utf-8") as handle:
            intact = handle.read()
        assert read_journal(journal).records[-1]["kind"] == "campaign-end"
        assert intact.endswith("\n")


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                    reason="requires POSIX SIGKILL")
class TestSupervisedParallelSigkill:
    def test_sigkill_mid_append_resumes_bit_exact(self, tmp_path):
        """SIGKILL a supervised-parallel campaign, then resume its torn
        journal with the same executor.

        The kill lands whenever the poll catches the journal with one
        intact run-result; a half-written record is then appended so
        the mid-append state is exercised deterministically on every
        run, wherever the kill actually landed.
        """
        journal = str(tmp_path / "killed.jsonl")
        env = _repro_env()
        command = [sys.executable, "-m", "repro", "chaos",
                   "--runs", "4", "--seed", "11", "--duration", "0.01",
                   "--workers", "2", "--max-attempts", "2",
                   "--run-timeout", "60",
                   "--journal", journal, "--checkpoint-every", "1"]
        process = subprocess.Popen(command, env=env,
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
        killed = False
        try:
            for _ in range(_MAX_POLLS):
                if os.path.exists(journal):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        results = read_journal(
                            journal,
                            tolerate_torn_tail=True).of_kind("run-result")
                    if len(results) >= 1:
                        break
                if process.poll() is not None:
                    break
                time.sleep(_POLL_INTERVAL_S)
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
                killed = True
        finally:
            process.wait()
        assert os.path.exists(journal)
        _append_torn_record(journal)

        reference = run_campaign(_campaign()).payloads
        with warnings.catch_warnings():
            # The planted torn tail warns by design; when the campaign
            # finished before the kill, there is nothing left to warn
            # about either way.
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = run_campaign(_campaign(),
                                   executor=make_executor(2, _POLICY),
                                   resume_from=journal)
        assert resumed.payloads == reference
        if killed:
            assert resumed.replayed >= 1
        kinds = [r["kind"] for r in read_journal(journal).records]
        assert kinds.count("run-result") == 4
        assert kinds[-1] == "campaign-end"

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads worker pids from /proc")
    def test_sigkilled_campaign_leaves_no_workers(self):
        """Workers notice their parent's death and exit on their own."""
        command = [sys.executable, "-m", "repro", "chaos",
                   "--runs", "32", "--seed", "11", "--duration", "0.01",
                   "--workers", "2", "--max-attempts", "2"]
        process = subprocess.Popen(command, env=_repro_env(),
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
        workers = []
        try:
            for _ in range(_MAX_POLLS):
                workers = _children(process.pid)
                if len(workers) >= 2 or process.poll() is not None:
                    break
                time.sleep(_POLL_INTERVAL_S)
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
        finally:
            process.wait()
        survivors = workers
        for _ in range(_MAX_POLLS):
            survivors = [pid for pid in survivors if _running(pid)]
            if not survivors:
                break
            time.sleep(_POLL_INTERVAL_S)
        for pid in survivors:  # never leak them past a failing test
            os.kill(pid, signal.SIGKILL)
        assert len(workers) == 2
        assert survivors == []
