"""End-to-end simulation driver.

:class:`SimulationRunner` connects a traffic generator to a placed chain
on a server, optionally runs a control loop (the paper's "periodically
query the load ... and execute the PAM algorithm"), and produces a
:class:`SimulationResult` with the latency/throughput aggregates the
benchmarks report.

The control loop is pluggable: anything with an ``on_tick(context)``
method works.  :mod:`repro.core.planner` provides the PAM controller and
:mod:`repro.baselines` the comparison policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol

from ..chain.placement import Placement
from ..devices.pcie import PCIeStats
from ..devices.server import Server
from ..errors import ConfigurationError, SimulationError
from ..resources.model import LoadModel
from ..telemetry.metrics import LatencySummary, ThroughputSummary
from ..traffic.generators import TrafficGenerator
from .engine import Engine
from .latency import COMPONENTS
from .network import ChainNetwork


@dataclass
class TickContext:
    """What a controller sees on each monitor tick."""

    now_s: float
    #: Offered-load estimate over the last monitor window, bits/second.
    offered_bps: float
    #: Utilisation model at the estimated offered load.
    load: LoadModel
    #: The server, so controllers can apply migrations.
    server: Server
    #: The live network (controllers pause/resume stations through it).
    network: ChainNetwork
    #: The engine, for scheduling migration completion events.
    engine: Engine
    #: Age of the monitor sample behind ``offered_bps``.  0 in normal
    #: operation; grows during a telemetry dropout, letting hardened
    #: controllers detect and suppress stale load readings.
    telemetry_age_s: float = 0.0


class Controller(Protocol):
    """A control-plane policy invoked on every monitor tick."""

    def on_tick(self, context: TickContext) -> None:
        """Inspect load and, if needed, start migrations."""


@dataclass
class SimulationResult:
    """Aggregates of one simulation run."""

    duration_s: float
    injected: int
    delivered: int
    dropped: int
    #: Packets consumed on purpose by filtering NFs (firewall blocks).
    filtered: int
    offered_bps: float
    latency: Optional[LatencySummary]
    throughput: ThroughputSummary
    component_means_s: Dict[str, float]
    pcie: PCIeStats
    final_placement: Placement
    #: Times at which controller-initiated migrations completed.
    migration_times_s: List[float] = field(default_factory=list)
    #: Names of NFs migrated, in order.
    migrated_nfs: List[str] = field(default_factory=list)
    #: Packets refused at ingress by the degradation ladder's admission
    #: control (not losses: a deliberate policy decision, like filtering).
    shed: int = 0

    @property
    def delivery_rate(self) -> float:
        """Fraction of injected packets delivered."""
        return self.delivered / self.injected if self.injected else 0.0

    @property
    def goodput_bps(self) -> float:
        """Delivered bits/second over the run."""
        return self.throughput.goodput_bps


class SimulationRunner:
    """Runs one (server, placement, workload[, controller]) experiment."""

    def __init__(self, server: Server, generator: TrafficGenerator,
                 controller: Optional[Controller] = None,
                 monitor_period_s: float = 0.002,
                 drain_grace_s: float = 0.01) -> None:
        if monitor_period_s <= 0:
            raise ConfigurationError("monitor period must be positive")
        if drain_grace_s < 0:
            raise ConfigurationError("drain grace must be >= 0")
        self.server = server
        self.generator = generator
        self.controller = controller
        self.monitor_period_s = monitor_period_s
        self.drain_grace_s = drain_grace_s
        self.engine = Engine()
        self.network = ChainNetwork(server, self.engine)
        self._last_window_bytes = 0
        self._last_sample_s = 0.0
        self._offered_estimate_bps = 0.0
        self._offered_mean_bps = 0.0
        self._prepared = False
        self._released = False
        self._tick_index = 0
        #: Hooks invoked at the very start of every monitor tick with
        #: the tick's index — before the index increments and before
        #: any estimator/controller state mutates — so an observer
        #: (the soak invariant engine) sees the state the previous
        #: tick left, not a half-updated one.
        self._tick_hooks: List[Callable[[int], None]] = []

    # -- control loop ---------------------------------------------------------

    def add_tick_hook(self, hook: Callable[[int], None]) -> None:
        """Subscribe ``hook(tick_index)`` to run first on every tick."""
        self._tick_hooks.append(hook)

    def _tick(self) -> None:
        for hook in tuple(self._tick_hooks):
            hook(self._tick_index)
        self._tick_index += 1
        now = self.engine.now_s
        sample_bytes, sample_s = self.network.telemetry_sample()
        age_s = max(0.0, now - sample_s)
        if age_s < self.monitor_period_s:
            # A fresh sample this window: advance the offered estimate.
            # During a telemetry dropout the sample is frozen and the
            # estimate holds its last value (what a real monitor keeps
            # reporting); the window spans back to the previous fresh
            # sample so the post-dropout catch-up is not read as a burst.
            window_bytes = sample_bytes - self._last_window_bytes
            window_s = sample_s - self._last_sample_s
            if window_s <= 0:
                window_s = self.monitor_period_s
            self._offered_estimate_bps = window_bytes * 8.0 / window_s
            self._last_window_bytes = sample_bytes
            self._last_sample_s = sample_s
        offered_bps = self._offered_estimate_bps
        # Keep device slowdowns tracking the measured load even when no
        # controller is installed.
        load = self.server.refresh_demand(offered_bps)
        if self.controller is not None:
            self.controller.on_tick(TickContext(
                now_s=now, offered_bps=offered_bps, load=load,
                server=self.server, network=self.network, engine=self.engine,
                telemetry_age_s=age_s))
        horizon = self.generator.duration_s
        if now + self.monitor_period_s <= horizon:
            self.engine.after(self.monitor_period_s, self._tick, control=True)

    # -- execution ----------------------------------------------------------------

    def prepare(self) -> None:
        """Inject the workload and arm the first monitor tick.

        Idempotent, and split from :meth:`run` so the
        :class:`repro.exec.Scenario` protocol's prepare phase builds the
        seeded event population apart from the engine run.
        """
        if self._prepared:
            return
        self._prepared = True
        self._offered_mean_bps = self.generator.mean_rate_bps()
        self.server.refresh_demand(self._offered_mean_bps)
        self.network.inject_batch(list(self.generator.packets()))
        self.engine.after(self.monitor_period_s, self._tick, control=True)

    def run(self) -> SimulationResult:
        """Inject the workload, run to completion, and aggregate."""
        self.prepare()
        self.engine.run(until_s=self.generator.duration_s + self.drain_grace_s)
        self.network.check_conservation()
        return self._collect(self._offered_mean_bps)

    def collect(self) -> SimulationResult:
        """Aggregate the end state (the :class:`repro.exec.Scenario`
        protocol's third phase; pure inspection, callable repeatedly
        until :meth:`release`)."""
        return self._collect(self._offered_mean_bps)

    def release(self) -> None:
        """End the run: drop its pending events and every packet it holds.

        The :class:`repro.exec.Scenario` protocol's last phase, for
        whoever built the run, once its result is collected.  A run's
        object graph is cyclic (the engine's action table points at
        station and network callbacks, which point back at the engine),
        so without this its packets stay resident until a full
        cycle collection.  Idempotent; :meth:`collect` afterwards
        raises rather than report an emptied run.
        """
        self._released = True
        self.engine.clear_pending()
        self.network.release()

    @property
    def released(self) -> bool:
        """Whether :meth:`release` has ended this run."""
        return self._released

    def _collect(self, offered_bps: float) -> SimulationResult:
        if self._released:
            raise SimulationError(
                "collect() after release(): the run's packets are gone")
        delivered = self.network.delivered
        # One pass over the delivered packets: latencies, the component
        # sums behind the means, and goodput.  Goodput counts only
        # packets that left within the workload horizon; backlog
        # drained during the grace period would otherwise inflate an
        # overloaded chain's apparent throughput.
        horizon = self.generator.duration_s
        latencies = []
        wire = processing = queueing = pcie = 0.0
        window_packets = window_bytes = 0
        for packet in delivered:
            departure_s = packet.departure_s
            latencies.append(departure_s - packet.arrival_s)
            wire += packet.wire
            processing += packet.processing
            queueing += packet.queueing
            pcie += packet.pcie
            if departure_s <= horizon:
                window_packets += 1
                window_bytes += packet.size_bytes
        latency = LatencySummary.from_samples(latencies) if latencies else None
        throughput = ThroughputSummary(
            delivered_packets=window_packets,
            delivered_bytes=window_bytes,
            window_s=horizon)
        count = len(delivered)
        component_means_s = (
            {"wire": wire / count, "processing": processing / count,
             "queueing": queueing / count, "pcie": pcie / count}
            if count else dict.fromkeys(COMPONENTS, 0.0))
        migrations = getattr(self.controller, "migrations", [])
        return SimulationResult(
            duration_s=self.generator.duration_s,
            injected=self.network.injected,
            delivered=len(delivered),
            dropped=len(self.network.dropped),
            filtered=len(self.network.filtered),
            offered_bps=offered_bps,
            latency=latency,
            throughput=throughput,
            component_means_s=component_means_s,
            pcie=self.server.pcie.stats,
            final_placement=self.server.placement,
            migration_times_s=[m.completed_s for m in migrations],
            migrated_nfs=[m.nf_name for m in migrations],
            shed=len(self.network.shed))


def simulate(server: Server, generator: TrafficGenerator,
             controller: Optional[Controller] = None,
             monitor_period_s: float = 0.002) -> SimulationResult:
    """One-call convenience wrapper around :class:`SimulationRunner`."""
    runner = SimulationRunner(server, generator, controller,
                              monitor_period_s)
    try:
        return runner.run()
    finally:
        runner.release()
