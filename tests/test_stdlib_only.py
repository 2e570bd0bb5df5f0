"""The package runs on the standard library alone.

A fresh interpreter imports ``repro`` and its CLI, then drives every
traffic path a campaign uses — a Figure 1 CBR simulation, a Poisson
stream, a jitter-free spike profile and a soak case with an overload
window — and must never have imported numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROGRAM = """
import sys

import repro
import repro.cli
from repro.chaos.schedule import ChaosFault
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.scenarios import figure1
from repro.soak.fuzzer import SoakCase
from repro.soak.scenario import run_case
from repro.traffic.generators import PoissonArrivals
from repro.traffic.packet import FixedSize
from repro.traffic.patterns import ProfiledArrivals, spike
from repro.units import gbps

result = run_experiment(ExperimentConfig(
    scenario=figure1(), packet_size_bytes=512, duration_s=0.001))
assert result.delivered > 0, result
poisson = list(PoissonArrivals(gbps(1.0), FixedSize(256), 0.001,
                               seed=3).packets())
profiled = list(ProfiledArrivals(
    spike(gbps(1.2), gbps(2.0), start_s=0.0002, duration_s=0.0004),
    FixedSize(512), 0.001, seed=3, jitter=False).packets())
assert poisson and profiled
overload = ChaosFault(kind="overload", at_s=0.001, duration_s=0.001,
                      magnitude=2.4e9)
payload = run_case(SoakCase(seed=5, duration_s=0.004, packet_bytes=512,
                            base_bps=gbps(1.2), peak_bps=gbps(1.8),
                            faults=(overload,)))
assert not payload["violations"], payload["violations"]
assert "numpy" not in sys.modules, "repro imported numpy"
print("stdlib-only")
"""


def test_no_numpy_import_end_to_end():
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", _PROGRAM], env=env,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "stdlib-only"
