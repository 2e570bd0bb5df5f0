"""A process imports what it runs.

Package ``__init__``s resolve their names lazily (:mod:`repro._lazy`),
code under ``src/`` imports from defining modules, and
``multiprocessing`` is imported only where :class:`ParallelExecutor`
spawns and waits on workers.  Each check runs in a fresh interpreter:
this test process has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_REPO = Path(__file__).resolve().parents[1]

_CAMPAIGN = """
from repro.chaos.runner import ChaosCampaign, ChaosRunner
from repro.chaos.schedule import ChaosConfig
from repro.exec.driver import run_campaign
from repro.exec.executors import {executor}


def campaign():
    return ChaosCampaign(ChaosRunner(
        runs=2, seed=7, config=ChaosConfig(duration_s=0.005)))
"""

_IMPORT_REPRO = """
import sys

import repro

loaded = sorted(name for name in sys.modules
                if name.startswith("repro."))
assert loaded == ["repro._lazy"], loaded
assert "multiprocessing" not in sys.modules
print("ok")
"""

#: Modules a serial benchmark workload never runs.
_NOT_RUN = ("multiprocessing", "repro.analysis", "repro.harness.paper",
            "repro.harness.sweep", "repro.chaos.crashresume",
            "repro.soak.shrinker")

_SERIAL_WORKLOAD = """
import sys

import workloads
""" + _CAMPAIGN.format(executor="SerialExecutor") + """
outcome = run_campaign(campaign(), executor=SerialExecutor())
assert len(outcome.payloads) == 2
assert not any(payload["violations"] for payload in outcome.payloads)
loaded = [name for name in {not_run!r} if name in sys.modules]
assert loaded == [], loaded
print("ok")
""".format(not_run=_NOT_RUN)

_PARALLEL = _CAMPAIGN.format(
    executor="ParallelExecutor, SerialExecutor") + """
parallel = run_campaign(campaign(), executor=ParallelExecutor(2))
serial = run_campaign(campaign(), executor=SerialExecutor())
assert parallel.payloads == serial.payloads
print("ok")
"""

_CLI_HELP = """
import runpy
import sys

sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exit_:
    assert exit_.code == 0, exit_.code
else:
    raise AssertionError("python -m repro --help did not exit")
loaded = [name for name in ("repro.sim", "repro.analysis",
                            "repro.harness.paper")
          if name in sys.modules]
assert loaded == [], loaded
print("ok")
"""


def _run(program, *paths):
    pythonpath = [str(Path(repro.__file__).resolve().parents[1])]
    pythonpath.extend(str(_REPO / path) for path in paths)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    completed = subprocess.run(
        [sys.executable, "-c", program], env=env, cwd=_REPO,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "ok"


def test_import_repro_loads_no_subpackage():
    _run(_IMPORT_REPRO)


def test_serial_workload_skips_what_it_does_not_run():
    _run(_SERIAL_WORKLOAD, "benchmarks/perf")


def test_parallel_executor_still_runs():
    _run(_PARALLEL)


def test_cli_help_skips_simulator_linter_and_paper_harness():
    _run(_CLI_HELP)
