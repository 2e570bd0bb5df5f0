"""Seeded double-run determinism regression.

The DET1xx lint rules enforce seed-threading *statically*; this test
guards the same property *dynamically*: two runs of an identical seeded
scenario must execute the identical event sequence, produce identical
per-packet latencies, and export byte-identical telemetry.  If either
side regresses — a new unseeded RNG, a wall-clock read, a hash-order
dependency — this is the test that goes red.
"""

from dataclasses import dataclass
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.runner import ChaosRunner
from repro.chaos.schedule import ChaosConfig
from repro.core.planner import MigrationController, PAMPolicy
from repro.harness.scenarios import figure1
from repro.sim.runner import SimulationResult, SimulationRunner
from repro.telemetry.export import series_to_csv
from repro.telemetry.monitor import LoadMonitor
from repro.traffic.packet import FixedSize
from repro.traffic.patterns import ProfiledArrivals, spike
from repro.units import gbps


@dataclass
class _RunArtifacts:
    """Everything observable from one seeded run."""

    trace: List[Tuple[float, int, int]]
    result: SimulationResult
    telemetry_csv: str
    latencies: List[float]


def _run_once(tmp_path, tag: str, seed: int = 11) -> _RunArtifacts:
    """One closed-loop spike episode with every seed pinned."""
    profile = spike(base_bps=gbps(1.3), peak_bps=gbps(1.8),
                    start_s=0.004, duration_s=1.0)
    generator = ProfiledArrivals(profile, FixedSize(256),
                                 duration_s=0.02, seed=seed, jitter=True)
    server = figure1().build_server()
    controller = MigrationController(PAMPolicy())
    monitor = LoadMonitor(inner=controller)
    runner = SimulationRunner(server, generator, monitor,
                              monitor_period_s=0.002)
    trace: List[Tuple[float, int, int]] = []
    runner.engine.trace_to(trace)
    result = runner.run()
    csv_path = tmp_path / f"telemetry-{tag}.csv"
    series_to_csv(monitor.recorder, csv_path)
    latencies = [p.latency_s for p in runner.network.delivered
                 if p.latency_s is not None]
    return _RunArtifacts(trace=trace, result=result,
                         telemetry_csv=csv_path.read_text(),
                         latencies=latencies)


class TestSeededReplay:
    def test_event_traces_identical(self, tmp_path):
        first = _run_once(tmp_path, "a")
        second = _run_once(tmp_path, "b")
        assert first.trace, "run executed no events"
        assert first.trace == second.trace

    def test_metrics_and_exports_identical(self, tmp_path):
        first = _run_once(tmp_path, "a")
        second = _run_once(tmp_path, "b")
        # Bit-for-bit, not approx: determinism means equality.
        assert first.latencies == second.latencies
        assert first.telemetry_csv == second.telemetry_csv
        for attribute in ("injected", "delivered", "dropped", "filtered",
                          "migrated_nfs", "migration_times_s"):
            assert getattr(first.result, attribute) == \
                getattr(second.result, attribute), attribute
        assert first.result.throughput.goodput_bps == \
            second.result.throughput.goodput_bps

    def test_migration_fired_in_scenario(self, tmp_path):
        # The episode must actually exercise the control loop, otherwise
        # the replay check proves nothing about controller determinism.
        artifacts = _run_once(tmp_path, "a")
        assert artifacts.result.migrated_nfs, \
            "spike scenario no longer triggers a migration"

    def test_different_seed_changes_trace(self, tmp_path):
        # Sanity check that the trace actually depends on the seed
        # (otherwise the identical-trace assertions are vacuous).
        base = _run_once(tmp_path, "a", seed=11)
        other = _run_once(tmp_path, "b", seed=12)
        assert base.trace != other.trace


def _metrics_key(result: SimulationResult):
    return (result.injected, result.delivered, result.dropped,
            result.filtered, result.shed,
            None if result.latency is None
            else (result.latency.mean_s, result.latency.p99_s),
            result.throughput.goodput_bps,
            result.migration_times_s, result.migrated_nfs,
            str(result.final_placement))


class TestChaosReplayProperty:
    """Faulted chaos runs replay exactly: the full event trace, not just
    the summary, is a function of the seed — for both control planes."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           resilient=st.booleans())
    @settings(max_examples=5, deadline=None)
    def test_fresh_builds_replay_trace_and_metrics(
            self, seed, resilient):
        config = ChaosConfig(duration_s=0.02, resilient=resilient)
        runner = ChaosRunner(runs=1, seed=seed, config=config)
        runs = []
        for _ in range(2):
            scenario = runner.build_scenario(seed)
            trace: List[Tuple[float, int, int]] = []
            scenario.sim.engine.trace_to(trace)
            runs.append((trace, _metrics_key(scenario.sim.run())))
        (trace_a, metrics_a), (trace_b, metrics_b) = runs
        assert trace_a, "run executed no events"
        assert trace_a == trace_b
        assert metrics_a == metrics_b
