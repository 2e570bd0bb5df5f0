"""End-to-end simulation driver.

:class:`SimulationRunner` connects one traffic generator to each chain
placed on a server, optionally runs a control loop (the paper's
"periodically query the load ... and execute the PAM algorithm"), and
produces one :class:`SimulationResult` per chain with the
latency/throughput aggregates the benchmarks report.  A single chain is
the one-entry case; co-located chains share the server's devices, so an
overload caused by one chain slows every chain's NFs on that device.

The control loop is pluggable: anything with an ``on_tick(context)``
method works.  :mod:`repro.core.planner` provides the PAM controller and
:mod:`repro.baselines` the comparison policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import le, sub
from typing import (Callable, Dict, List, Mapping, Optional, Protocol,
                    Sequence, Tuple, TypeVar, Union)

from ..chain.placement import Placement
from ..devices.pcie import PCIeStats
from ..devices.server import Server
from ..errors import ConfigurationError, PlacementError, SimulationError
from ..resources.model import LoadModel, ThroughputSpec, filtered_throughput
from ..telemetry.metrics import LatencySummary, ThroughputSummary
from ..traffic.generators import TrafficGenerator
from .engine import Engine
from .network import ChainNetwork


_T = TypeVar("_T")


def _only(items: Sequence[_T]) -> _T:
    """The one entry of a single-chain run's per-chain sequence."""
    if len(items) != 1:
        raise PlacementError(
            f"the run has {len(items)} chains; this needs a single chain")
    return items[0]


@dataclass
class TickContext:
    """What a controller sees on each monitor tick."""

    now_s: float
    #: Offered-load estimate over the last monitor window, bits/second:
    #: a float for a single chain; with several chains, a per-NF map of
    #: each chain's estimate thinned through its filters.
    offered: ThroughputSpec
    #: One utilisation model per chain at the estimated offered load.
    loads: Tuple[LoadModel, ...]
    #: The server, so controllers can apply migrations.
    server: Server
    #: One live network per chain (controllers pause/resume stations
    #: through them).
    networks: Tuple[ChainNetwork, ...]
    #: The engine, for scheduling migration completion events.
    engine: Engine
    #: Age of the oldest monitor sample behind ``offered``.  0 in normal
    #: operation; grows during a telemetry dropout, letting hardened
    #: controllers detect and suppress stale load readings.
    telemetry_age_s: float = 0.0

    @property
    def offered_bps(self) -> float:
        """The single chain's offered-load estimate, bits/second."""
        offered = self.offered
        if isinstance(offered, Mapping):
            raise PlacementError(
                f"{len(self.loads)} chains have no single offered load")
        return offered

    @property
    def load(self) -> LoadModel:
        """The single chain's utilisation model."""
        return _only(self.loads)

    @property
    def network(self) -> ChainNetwork:
        """The single chain's live network."""
        return _only(self.networks)


class Controller(Protocol):
    """A control-plane policy invoked on every monitor tick."""

    def on_tick(self, context: TickContext) -> None:
        """Inspect load and, if needed, start migrations."""


@dataclass
class SimulationResult:
    """Aggregates of one chain's simulation run."""

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
    #: The server's PCIe link, which co-located chains share.
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
    """Runs one (server, placements, workloads[, controller]) experiment.

    ``generator`` is the workload of a single-chain server, or one
    generator per installed placement, in install order.
    """

    def __init__(self, server: Server,
                 generator: Union[TrafficGenerator,
                                  Sequence[TrafficGenerator]],
                 controller: Optional[Controller] = None,
                 monitor_period_s: float = 0.002,
                 drain_grace_s: float = 0.01) -> None:
        if monitor_period_s <= 0:
            raise ConfigurationError("monitor period must be positive")
        if drain_grace_s < 0:
            raise ConfigurationError("drain grace must be >= 0")
        self.generators: Tuple[TrafficGenerator, ...] = (
            (generator,) if isinstance(generator, TrafficGenerator)
            else tuple(generator))
        placements = server.placements
        if len(self.generators) != len(placements):
            raise ConfigurationError(
                f"{len(placements)} chain(s) need one generator each, "
                f"got {len(self.generators)}")
        self.server = server
        self.controller = controller
        self.monitor_period_s = monitor_period_s
        self.drain_grace_s = drain_grace_s
        self.engine = Engine()
        self.networks: Tuple[ChainNetwork, ...] = tuple(
            ChainNetwork(server, self.engine, placement)
            for placement in placements)
        self._horizon_s = max(g.duration_s for g in self.generators)
        # The monitor's per-chain state.
        self._last_window_bytes = [0] * len(placements)
        self._last_sample_s = [0.0] * len(placements)
        self._offered_estimate_bps = [0.0] * len(placements)
        self._offered_mean_bps = [0.0] * len(placements)
        self._prepared = False
        self._released = False
        self._tick_index = 0
        #: Hooks invoked at the very start of every monitor tick with
        #: the tick's index — before the index increments and before
        #: any estimator/controller state mutates — so an observer
        #: (the soak invariant engine) sees the state the previous
        #: tick left, not a half-updated one.
        self._tick_hooks: List[Callable[[int], None]] = []

    @property
    def network(self) -> ChainNetwork:
        """The single chain's live network."""
        return _only(self.networks)

    # -- control loop ---------------------------------------------------------

    def add_tick_hook(self, hook: Callable[[int], None]) -> None:
        """Subscribe ``hook(tick_index)`` to run first on every tick."""
        self._tick_hooks.append(hook)

    def _offered(self, rates: List[float]) -> ThroughputSpec:
        """The server-wide offered load from per-chain head rates.

        One chain's rate stays a float; several chains' become a per-NF
        map, so one throughput spec covers every co-located chain.
        """
        if len(rates) == 1:
            return rates[0]
        offered: Dict[str, float] = {}
        for network, rate in zip(self.networks, rates):
            offered.update(filtered_throughput(network.chain, rate))
        return offered

    def _tick(self) -> None:
        for hook in tuple(self._tick_hooks):
            hook(self._tick_index)
        self._tick_index += 1
        now = self.engine.now_s
        age_s = 0.0
        for index, network in enumerate(self.networks):
            sample_bytes, sample_s = network.telemetry_sample()
            chain_age_s = max(0.0, now - sample_s)
            age_s = max(age_s, chain_age_s)
            if chain_age_s < self.monitor_period_s:
                # A fresh sample this window: advance the offered
                # estimate.  During a telemetry dropout the sample is
                # frozen and the estimate holds its last value (what a
                # real monitor keeps reporting); the window spans back
                # to the previous fresh sample so the post-dropout
                # catch-up is not read as a burst.
                window_bytes = sample_bytes - self._last_window_bytes[index]
                window_s = sample_s - self._last_sample_s[index]
                if window_s <= 0:
                    window_s = self.monitor_period_s
                self._offered_estimate_bps[index] = \
                    window_bytes * 8.0 / window_s
                self._last_window_bytes[index] = sample_bytes
                self._last_sample_s[index] = sample_s
        offered = self._offered(self._offered_estimate_bps)
        # Keep device slowdowns tracking the measured load even when no
        # controller is installed.
        loads = self.server.refresh_demand(offered)
        if self.controller is not None:
            self.controller.on_tick(TickContext(
                now_s=now, offered=offered, loads=loads,
                server=self.server, networks=self.networks,
                engine=self.engine, telemetry_age_s=age_s))
        if now + self.monitor_period_s <= self._horizon_s:
            self.engine.after(self.monitor_period_s, self._tick, control=True)

    # -- execution ----------------------------------------------------------------

    def prepare(self) -> None:
        """Stream every chain's workload in and arm the first monitor tick.

        Idempotent, and split from :meth:`run` so the
        :class:`repro.exec.Scenario` protocol's prepare phase sets up
        the seeded event population apart from the engine run.  Each
        generator is drawn lazily as the run consumes it (see
        :meth:`ChainNetwork.inject_stream`), so an error it raises past
        its first packet surfaces from :meth:`run`.
        """
        if self._prepared:
            return
        self._prepared = True
        self._offered_mean_bps = [g.mean_rate_bps() for g in self.generators]
        self.server.refresh_demand(self._offered(self._offered_mean_bps))
        for network, generator in zip(self.networks, self.generators):
            network.inject_stream(generator.packets())
        self.engine.after(self.monitor_period_s, self._tick, control=True)

    def run_chains(self) -> List[SimulationResult]:
        """Inject, run to completion, and aggregate each chain in turn."""
        self.prepare()
        self.engine.run(until_s=self._horizon_s + self.drain_grace_s)
        for network in self.networks:
            network.check_conservation()
        return self._collect()

    def run(self) -> SimulationResult:
        """:meth:`run_chains` on a single-chain server."""
        _only(self.networks)
        return self.run_chains()[0]

    def collect(self) -> SimulationResult:
        """Aggregate the single chain's end state (the
        :class:`repro.exec.Scenario` protocol's third phase; pure
        inspection, callable repeatedly until :meth:`release`)."""
        return _only(self._collect())

    def release(self) -> None:
        """End the run: drop its pending events, every packet it holds
        and its delivered-packet ledgers.

        The :class:`repro.exec.Scenario` protocol's last phase, for
        whoever built the run, once its result is collected.  A run's
        object graph is cyclic (the engine's action table points at
        station and network callbacks, which point back at the engine),
        so without this its queued and buffered packets and its ledger
        rows stay resident until a full cycle collection.  Dropped,
        filtered and shed packets are counted, never held, so nothing
        of theirs is left to free.  Idempotent; :meth:`collect`
        afterwards raises rather than report an emptied run.
        """
        self._released = True
        self.engine.clear_pending()
        for network in self.networks:
            network.release()

    @property
    def released(self) -> bool:
        """Whether :meth:`release` has ended this run."""
        return self._released

    def _collect(self) -> List[SimulationResult]:
        if self._released:
            raise SimulationError(
                "collect() after release(): the run's packets are gone")
        migrations = getattr(self.controller, "migrations", [])
        return [self._collect_chain(network, generator, placement,
                                    offered_bps, migrations)
                for network, generator, placement, offered_bps in zip(
                    self.networks, self.generators, self.server.placements,
                    self._offered_mean_bps)]

    def _collect_chain(self, network: ChainNetwork,
                       generator: TrafficGenerator, placement: Placement,
                       offered_bps: float,
                       migrations: list) -> SimulationResult:
        delivered = network.delivered
        # Whole columns at a time, no per-packet Python loop: latencies,
        # component means and goodput.  Goodput counts only packets
        # that left within the workload horizon; backlog drained during
        # the grace period would otherwise inflate an overloaded
        # chain's apparent throughput.
        horizon = generator.duration_s
        departures = delivered.column("departure_s")
        latency = (LatencySummary.from_samples(
            map(sub, departures, delivered.column("arrival_s")))
            if delivered else None)
        in_window = list(map(le, departures, repeat(horizon)))
        # Integral sizes below 2**53 sum exactly in any order.
        window_bytes = int(sum(compress(delivered.column("size_bytes"),
                                        in_window)))
        throughput = ThroughputSummary(
            delivered_packets=in_window.count(True),
            delivered_bytes=window_bytes,
            window_s=horizon)
        component_means_s = delivered.component_means()
        moved = [m for m in migrations if m.nf_name in network.stations]
        return SimulationResult(
            duration_s=horizon,
            injected=network.injected,
            delivered=len(delivered),
            dropped=network.dropped,
            filtered=network.filtered,
            offered_bps=offered_bps,
            latency=latency,
            throughput=throughput,
            component_means_s=component_means_s,
            pcie=self.server.pcie.stats,
            final_placement=placement,
            migration_times_s=[m.completed_s for m in moved],
            migrated_nfs=[m.nf_name for m in moved],
            shed=network.shed)


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
