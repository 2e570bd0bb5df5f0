"""Seeded double-run determinism regression.

The DET1xx lint rules enforce seed-threading *statically*; this test
guards the same property *dynamically*: two runs of an identical seeded
scenario must execute the identical event sequence, produce identical
per-packet latencies, and record identical telemetry.  If either
side regresses — a new unseeded RNG, a wall-clock read, a hash-order
dependency — this is the test that goes red.
"""

import zlib
from dataclasses import dataclass
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.builder import ChainBuilder
from repro.chain.nf import DeviceKind, NFProfile
from repro.chaos.runner import ChaosRunner
from repro.chaos.schedule import ChaosConfig
from repro.core.planner import MigrationController, PAMPolicy
from repro.devices.cpu import CPU
from repro.devices.server import Server
from repro.exec import RunRequest, seed_for
from repro.harness.compare import default_policies
from repro.harness.experiment import ExperimentConfig, ExperimentScenario
from repro.harness.scenarios import FIGURE1_SATURATION_BPS, figure1
from repro.resources.model import LoadModel
from repro.soak import SoakCampaign, default_space
from repro.soak.scenario import build_case_scenario
from repro.sim.runner import SimulationResult, SimulationRunner
from repro.telemetry.monitor import LoadMonitor
from repro.traffic.generators import ConstantBitRate
from repro.traffic.packet import FixedSize
from repro.traffic.patterns import ProfiledArrivals, spike
from repro.units import gbps


@dataclass
class _RunArtifacts:
    """Everything observable from one seeded run."""

    trace: List[Tuple[float, int, int]]
    result: SimulationResult
    telemetry: str
    latencies: List[float]


def _run_once(seed: int = 11) -> _RunArtifacts:
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
    recorder = monitor.recorder
    assert recorder.names(), "monitor recorded no series"
    latencies = [p.latency_s for p in runner.network.delivered
                 if p.latency_s is not None]
    return _RunArtifacts(trace=trace, result=result,
                         telemetry=repr([(name, recorder.series(name))
                                         for name in recorder.names()]),
                         latencies=latencies)


class TestSeededReplay:
    def test_event_traces_identical(self):
        first = _run_once()
        second = _run_once()
        assert first.trace, "run executed no events"
        assert first.trace == second.trace

    def test_metrics_and_exports_identical(self):
        first = _run_once()
        second = _run_once()
        # Bit-for-bit, not approx: determinism means equality.
        assert first.latencies == second.latencies
        assert first.telemetry == second.telemetry
        for attribute in ("injected", "delivered", "dropped", "filtered",
                          "migrated_nfs", "migration_times_s"):
            assert getattr(first.result, attribute) == \
                getattr(second.result, attribute), attribute
        assert first.result.throughput.goodput_bps == \
            second.result.throughput.goodput_bps

    def test_migration_fired_in_scenario(self):
        # The episode must actually exercise the control loop, otherwise
        # the replay check proves nothing about controller determinism.
        artifacts = _run_once()
        assert artifacts.result.migrated_nfs, \
            "spike scenario no longer triggers a migration"

    def test_different_seed_changes_trace(self):
        # Sanity check that the trace actually depends on the seed
        # (otherwise the identical-trace assertions are vacuous).
        base = _run_once(seed=11)
        other = _run_once(seed=12)
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


class _TraceCrc:
    """A trace observer folding ``(repr(time_s), priority)`` of every
    executed event into a CRC32.  Seqs are left out: they are scheduler
    bookkeeping, free to change as long as the order they give does."""

    def __init__(self) -> None:
        self.events = 0
        self.crc = 0

    def __call__(self, keys: List[Tuple[float, int, int]]) -> None:
        self.events += len(keys)
        self.crc = zlib.crc32("".join(
            f"{time_s!r} {priority}\n" for time_s, priority, _ in keys
        ).encode(), self.crc)


def _fig2_engine(policy_name: str):
    """Figure 2's 64 B run of one policy at the saturating load."""
    scenario = figure1()
    policy = {policy.name: policy for policy in default_policies()}[
        policy_name]
    plan = policy.select(
        (LoadModel(scenario.placement, scenario.throughput_bps),))
    run = ExperimentScenario(ExperimentConfig(
        scenario=scenario.with_placement(plan.after, suffix=policy.name),
        offered_bps=FIGURE1_SATURATION_BPS, packet_size_bytes=64,
        duration_s=0.003))
    return run, run.runner.engine


def _chaos_engine():
    """Chaos seed 7, run 0, at the benchmark's 10 ms."""
    runner = ChaosRunner(runs=1, seed=7,
                         config=ChaosConfig(duration_s=0.01))
    run = runner.build_scenario(seed_for(7, 0))
    return run, run.sim.engine


def _soak_engine():
    """Soak case 0 of ``default_space(0.01)`` at seed 7."""
    campaign = SoakCampaign(runs=1, seed=7, space=default_space(0.01))
    run = build_case_scenario(
        campaign.case_for(RunRequest(index=0, seed=seed_for(7, 0))))
    return run, run.sim.engine


def _tied_engine():
    """CBR arrivals on a grid that their service completions land on.

    Every time, rate and size is a power of two, so the two CPU
    stations' server-frees and emits fall exactly on arrival instants
    (about two events in three tie with the one before).  The first NF
    filters and the queues hold four packets, so which of two tied
    events runs first decides which packets drop or pass.
    """
    rate_bps = float(2 ** 31)
    _, placement = (
        ChainBuilder("ties")
        .cpu(NFProfile("gate", cpu_capacity_bps=rate_bps,
                       base_latency_s=0.0, pass_rate=0.75))
        .cpu(NFProfile("sink", cpu_capacity_bps=rate_bps,
                       base_latency_s=0.0))
        .build(ingress=DeviceKind.CPU, egress=DeviceKind.CPU))
    server = Server(cpu=CPU("cpu", queue_capacity_packets=4))
    server.install(placement)
    run = SimulationRunner(server, ConstantBitRate(
        rate_bps, FixedSize(128), duration_s=2.0 ** -10))
    return run, run.engine


class TestTracePins:
    """The executed event order of five runs, pinned across commits.

    Counts and result digests (``benchmarks/perf`` ``PINS``, the soak
    goldens) would miss two events trading places; these CRCs do not
    wherever the swap changes what follows.  The tied run is the one
    where arrivals meet heap entries at equal ``(time, priority)``.
    The values were captured before arrivals became engine streams.
    """

    @pytest.mark.parametrize("build,events,crc", [
        (lambda: _fig2_engine("noop"), 160481, 3753367652),
        (lambda: _fig2_engine("pam"), 198043, 2056164795),
        (_chaos_engine, 16618, 586111831),
        (_soak_engine, 23215, 3238657689),
        (_tied_engine, 5738, 2224053060),
    ], ids=["fig2-noop-64B", "fig2-pam-64B", "chaos-seed7-run0",
            "soak-case0", "cbr-ties"])
    def test_trace_crc(self, build, events, crc):
        run, engine = build()
        observed = _TraceCrc()
        engine.add_trace_observer(observed)
        try:
            run.prepare()
            run.run()
        finally:
            run.release()
        assert (observed.events, observed.crc) == (events, crc)
