"""Single-experiment driver.

One experiment = one scenario placement simulated under one workload,
optionally with a live controller.  This module packages the runner's
setup into a declarative :class:`ExperimentConfig` so benches and
examples construct experiments, not plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..chain.placement import Placement
from ..errors import ConfigurationError
from ..sim.runner import Controller, SimulationResult, SimulationRunner
from ..traffic.generators import ConstantBitRate, TrafficGenerator
from ..traffic.packet import FixedSize
from .scenarios import Scenario


#: Default measurement horizon.  Long enough for thousands of packets at
#: the paper's rates, short enough that sweeps stay fast.
DEFAULT_DURATION_S = 0.02


@dataclass
class ExperimentConfig:
    """Everything one run needs."""

    scenario: Scenario
    #: Offered load in bits/second (defaults to the scenario throughput).
    offered_bps: Optional[float] = None
    packet_size_bytes: int = 256
    duration_s: float = DEFAULT_DURATION_S
    controller: Optional[Controller] = None
    monitor_period_s: float = 0.002
    seed: int = 1
    #: Custom generator; when set, offered/size/duration/seed are ignored.
    generator: Optional[TrafficGenerator] = None

    def build_generator(self) -> TrafficGenerator:
        """The workload for this experiment (CBR unless overridden)."""
        if self.generator is not None:
            return self.generator
        offered = self.offered_bps
        if offered is None:
            offered = self.scenario.throughput_bps
        if offered <= 0:
            raise ConfigurationError("offered load must be positive")
        return ConstantBitRate(
            rate_bps=offered,
            size_dist=FixedSize(self.packet_size_bytes),
            duration_s=self.duration_s,
            seed=self.seed)


class ExperimentScenario:
    """One experiment as a :class:`repro.exec.Scenario`.

    Building wires the server and runner from the declarative config;
    ``prepare``/``run``/``collect`` delegate to the simulation runner,
    which implements the same protocol.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.runner = SimulationRunner(
            server=config.scenario.build_server(),
            generator=config.build_generator(),
            controller=config.controller,
            monitor_period_s=config.monitor_period_s)

    def prepare(self) -> None:
        """Inject the workload and arm the monitor (idempotent)."""
        self.runner.prepare()

    def run(self) -> SimulationResult:
        """Drive the simulation to completion."""
        return self.runner.run()

    def collect(self) -> SimulationResult:
        """Aggregate the end state (pure inspection)."""
        return self.runner.collect()

    def release(self) -> None:
        """Free the run's packets and pending events (idempotent)."""
        self.runner.release()


def run_experiment(config: ExperimentConfig) -> SimulationResult:
    """Build the scenario, run the workload, return the aggregates."""
    scenario = ExperimentScenario(config)
    try:
        scenario.prepare()
        scenario.run()
        return scenario.collect()
    finally:
        scenario.release()


def steady_state(scenario: Scenario, offered_bps: float,
                 packet_size_bytes: int = 256,
                 duration_s: float = DEFAULT_DURATION_S) -> SimulationResult:
    """Measure a fixed placement with no controller (steady state)."""
    return run_experiment(ExperimentConfig(
        scenario=scenario, offered_bps=offered_bps,
        packet_size_bytes=packet_size_bytes, duration_s=duration_s))
