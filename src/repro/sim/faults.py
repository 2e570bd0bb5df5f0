"""Failure injection for the simulated data plane.

Production NFV control planes are judged by how they behave when things
break, so the test suite (and the :mod:`repro.chaos` harness) injects
faults:

* **NF crash** — a station fails at a chosen time; packets reaching it
  are dropped (a crashed NF forwards nothing) until a restart after
  ``downtime_s``.  Restart discards whatever sat in the queue, like a
  process respawn.  The same NF can crash and restart any number of
  times: one idempotent accept-wrapper is installed per station, and
  overlapping crash windows extend the downtime rather than stacking.
* **Random loss** — Bernoulli packet loss at ingress (a flaky optic or
  overrun RX ring), seeded for reproducibility.  Installing it twice on
  one network is rejected — stacked wrappers would silently compound
  the loss probability.
* **Device brownout** — a temporary capacity reduction on the SmartNIC
  or CPU (thermal throttling, partial hardware failure): every hosted
  NF's effective service rate scales down for the window.
* **PCIe link flap** — a latency spike (or, with a large spike, an
  unavailability window) on every NIC<->CPU transfer, including
  migration state DMAs — which is how a flap mid-migration can push an
  attempt past its timeout and force a rollback.
* **Telemetry dropout** — the monitor's load sample freezes for a
  window; the runner keeps reporting the last reading with a growing
  ``telemetry_age_s`` so hardened controllers can suppress planning on
  stale data.
* **Device kill** — a *permanent* whole-device failure (NPU or core
  complex dies): the queues of every hosted station are lost, the
  device stops serving forever, and — unlike a brownout — nothing ever
  restores it.  Recovery is the resilience layer's job: evacuate the
  hosted NFs to the survivor (:mod:`repro.resilience`).

Faults compose with controllers: a crash on an overloaded NIC looks to
the monitor like load relief, and the tests pin down that the planner
does not misread it (utilisation is computed from *offered* load, not
from the survivors).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..chain.nf import DeviceKind
from ..errors import ConfigurationError
from ..sim.engine import Engine
from ..sim.network import ChainNetwork
from ..traffic.packet import Packet


@dataclass
class FaultEvent:
    """One injected fault, for post-run inspection."""

    kind: str
    nf_name: Optional[str]
    at_s: float
    until_s: Optional[float] = None
    packets_lost: int = 0
    #: Device the fault targets (brownouts and link flaps).
    device: Optional[str] = None
    #: Fault-specific magnitude: brownout capacity scale or flap extra
    #: latency in seconds.
    magnitude: float = 0.0


class FaultInjector:
    """Schedules crashes, brownouts, flaps, and loss against one network."""

    def __init__(self, network: ChainNetwork, engine: Engine,
                 seed: int = 99) -> None:
        self.network = network
        self.engine = engine
        self.rng = random.Random(seed)
        self.events: List[FaultEvent] = []
        self._failed: set = set()
        #: Latest restart time per NF, so overlapping crash windows
        #: extend downtime instead of restoring early.
        self._down_until: Dict[str, float] = {}
        #: Active crash event per NF (receives the drop accounting).
        self._active_crash: Dict[str, FaultEvent] = {}
        #: Crash wrapper per wrapped station, with the instance ``accept``
        #: it replaced (None: the class's method) — at most one wrapper
        #: per station at a time, however many crash windows overlap.
        self._wrapped_accepts: Dict[
            str, Tuple[Callable[[Packet], bool],
                       Optional[Callable[[Packet], bool]]]] = {}
        self._loss_installed = False
        #: Latest brownout end per device kind.
        self._brownout_until: Dict[DeviceKind, float] = {}
        #: Devices killed permanently (brownout expiry must not revive
        #: them; the restored-faults invariant exempts them).
        self._dead_devices: set = set()
        #: Latest flap end on the PCIe link.
        self._flap_until_s = 0.0
        #: Frozen (arrived_bytes, sample_time) during a telemetry
        #: dropout; ``None`` while telemetry is live.
        self._frozen_sample: Optional[Tuple[int, float]] = None
        self._dropout_until_s = 0.0
        self._telemetry_tapped = False

    # -- NF crash ------------------------------------------------------------

    def crash_nf(self, nf_name: str, at_s: float,
                 downtime_s: float) -> FaultEvent:
        """Crash ``nf_name`` at ``at_s``; restart after ``downtime_s``.

        May be called repeatedly for the same NF, including overlapping
        windows (the NF stays down until the latest restart time).
        """
        if nf_name not in self.network.stations:
            raise ConfigurationError(f"no station named {nf_name!r}")
        if downtime_s <= 0:
            raise ConfigurationError("downtime must be positive")
        event = FaultEvent(kind="crash", nf_name=nf_name, at_s=at_s,
                           until_s=at_s + downtime_s)
        self.events.append(event)
        self.engine.at(at_s, lambda: self._fail(nf_name, event),
                       control=True)
        self.engine.at(at_s + downtime_s, lambda: self._restore(nf_name),
                       control=True)
        return event

    def _install_crash_wrapper(self, nf_name: str) -> None:
        """Wrap the station's accept() for one outage; the wrapper
        consults the failed-set on every packet, so overlapping crashes
        reuse it, and :meth:`_remove_crash_wrapper` takes it off."""
        if nf_name in self._wrapped_accepts:
            return
        station = self.network.stations[nf_name]
        original_accept = station.accept

        def dropping_accept(packet: Packet) -> bool:
            if nf_name in self._failed:
                # Returning False lets the network's hop do the drop
                # accounting, exactly like a queue overflow.
                packet.dropped_at = nf_name
                event = self._active_crash.get(nf_name)
                if event is not None:
                    event.packets_lost += 1
                return False
            return original_accept(packet)

        self._wrapped_accepts[nf_name] = (
            dropping_accept, station.__dict__.get("accept"))
        station.accept = dropping_accept  # type: ignore[method-assign]

    def _remove_crash_wrapper(self, nf_name: str) -> None:
        """Put back the accept() the crash wrapper wrapped.

        Only while the wrapper is still the outermost accept: under a
        wrapper installed on top of it since, it stays, passing packets
        through while the NF is up.
        """
        station = self.network.stations[nf_name]
        wrapper, wrapped = self._wrapped_accepts[nf_name]
        if station.__dict__.get("accept") is not wrapper:
            return
        del self._wrapped_accepts[nf_name]
        if wrapped is None:
            del station.accept  # back to the class's method
        else:
            station.accept = wrapped  # type: ignore[method-assign]

    def _fail(self, nf_name: str, event: FaultEvent) -> None:
        until = event.until_s if event.until_s is not None else 0.0
        self._down_until[nf_name] = max(self._down_until.get(nf_name, 0.0),
                                        until)
        self._active_crash[nf_name] = event
        if nf_name in self._failed:
            # Already down (overlapping windows): the new event just
            # extends the outage, no queue left to lose.
            return
        self._failed.add(nf_name)
        station = self.network.stations[nf_name]
        # A crash loses the queue contents: drain and count them lost.
        lost = len(station.queue.drain())
        self.network.count_drops(nf_name, lost)
        event.packets_lost += lost
        self._install_crash_wrapper(nf_name)

    def _restore(self, nf_name: str) -> None:
        if self.engine.now_s < self._down_until.get(nf_name, 0.0) - 1e-12:
            return  # a later overlapping crash still holds the NF down
        if nf_name not in self._failed:
            return
        self._failed.discard(nf_name)
        self._active_crash.pop(nf_name, None)
        self._remove_crash_wrapper(nf_name)

    def is_failed(self, nf_name: str) -> bool:
        """Whether ``nf_name`` is currently down."""
        return nf_name in self._failed

    # -- random loss ------------------------------------------------------------

    def random_loss(self, probability: float) -> FaultEvent:
        """Drop each arriving packet with ``probability`` at ingress."""
        if not (0.0 < probability < 1.0):
            raise ConfigurationError("loss probability must be in (0, 1)")
        if self._loss_installed:
            raise ConfigurationError(
                "random loss is already installed on this network; a "
                "second wrapper would compound the drop probability")
        self._loss_installed = True
        event = FaultEvent(kind="loss", nf_name=None, at_s=0.0)
        self.events.append(event)
        original_ingress = self.network._ingress

        def lossy_ingress(packet: Packet) -> None:
            if self.rng.random() < probability:
                self.network.arrived_bytes += packet.size_bytes
                self.network.count_drops("wire")
                event.packets_lost += 1
                return
            original_ingress(packet)

        self.network._ingress = lossy_ingress  # type: ignore[method-assign]
        # Injection is scheduled by action id: repoint the id too so
        # already-queued arrivals dispatch into the lossy wrapper.
        self.engine.rebind_action(self.network._ingress_id, lossy_ingress)
        return event

    # -- device kill (permanent) --------------------------------------------------

    def kill_device(self, device: DeviceKind, at_s: float) -> FaultEvent:
        """Kill ``device`` permanently at ``at_s``.

        The failure domain is the *processing* complex: the wire and the
        PCIe/DMA engines survive (they are separate silicon), which is
        what lets the resilience layer evacuate the hosted NFs over PCIe
        afterwards.  At kill time the queues of every hosted, non-paused
        station are lost (counted on the event), and from then on the
        network drops arrivals to stations still bound to the corpse.
        Killing an already-dead device is a no-op beyond the record.
        """
        event = FaultEvent(kind="device-kill", nf_name=None, at_s=at_s,
                           device=device.value)
        self.events.append(event)
        dev = self.network.server.device(device)

        def kill() -> None:
            if device in self._dead_devices:
                return
            self._dead_devices.add(device)
            dev.fail()
            for station in self.network.stations.values():
                if station.device is not dev or station.paused:
                    continue
                lost = len(station.queue.drain())
                self.network.count_drops(station.profile.name, lost)
                event.packets_lost += lost

        self.engine.at(at_s, kill, control=True)
        return event

    def is_device_dead(self, device: DeviceKind) -> bool:
        """Whether ``device`` has been permanently killed."""
        return device in self._dead_devices

    # -- device brownout ---------------------------------------------------------

    def brownout(self, device: DeviceKind, at_s: float, duration_s: float,
                 capacity_scale: float) -> FaultEvent:
        """Derate ``device`` to ``capacity_scale`` for the window.

        Overlapping brownouts on the same device compose by taking the
        deepest derate and the latest end time.
        """
        if duration_s <= 0:
            raise ConfigurationError("brownout duration must be positive")
        if not (0.0 < capacity_scale < 1.0):
            raise ConfigurationError("capacity scale must be in (0, 1)")
        event = FaultEvent(kind="brownout", nf_name=None, at_s=at_s,
                           until_s=at_s + duration_s, device=device.value,
                           magnitude=capacity_scale)
        self.events.append(event)
        dev = self.network.server.device(device)

        def start() -> None:
            self._brownout_until[device] = max(
                self._brownout_until.get(device, 0.0), at_s + duration_s)
            dev.set_derate(min(dev.derate, capacity_scale))

        def end() -> None:
            if dev.is_failed:
                # Fault composition: the device died while the brownout
                # was in force.  Expiring the brownout must not
                # "restore" capacity on a corpse.
                return
            if self.engine.now_s >= \
                    self._brownout_until.get(device, 0.0) - 1e-12:
                dev.set_derate(1.0)

        self.engine.at(at_s, start, control=True)
        self.engine.at(at_s + duration_s, end, control=True)
        return event

    # -- PCIe link flap ----------------------------------------------------------

    def pcie_flap(self, at_s: float, duration_s: float,
                  extra_latency_s: float) -> FaultEvent:
        """Spike every PCIe transfer by ``extra_latency_s`` for the window.

        A large spike approximates link unavailability.  Overlapping
        flaps take the worst spike and the latest end time.
        """
        if duration_s <= 0:
            raise ConfigurationError("flap duration must be positive")
        if extra_latency_s <= 0:
            raise ConfigurationError("flap extra latency must be positive")
        event = FaultEvent(kind="pcie-flap", nf_name=None, at_s=at_s,
                           until_s=at_s + duration_s, device="pcie",
                           magnitude=extra_latency_s)
        self.events.append(event)
        link = self.network.server.pcie

        def start() -> None:
            self._flap_until_s = max(self._flap_until_s, at_s + duration_s)
            link.set_fault(max(link.fault_extra_latency_s, extra_latency_s))

        def end() -> None:
            if self.engine.now_s >= self._flap_until_s - 1e-12:
                link.clear_fault()

        self.engine.at(at_s, start, control=True)
        self.engine.at(at_s + duration_s, end, control=True)
        return event

    # -- telemetry dropout -------------------------------------------------------

    def telemetry_dropout(self, at_s: float, duration_s: float) -> FaultEvent:
        """Freeze the monitor's load sample for the window.

        During the dropout :meth:`ChainNetwork.telemetry_sample` keeps
        returning the last pre-dropout reading with its old timestamp,
        so the runner's ``telemetry_age_s`` grows and stale-aware
        controllers stop planning on it.
        """
        if duration_s <= 0:
            raise ConfigurationError("dropout duration must be positive")
        event = FaultEvent(kind="telemetry-dropout", nf_name=None, at_s=at_s,
                           until_s=at_s + duration_s)
        self.events.append(event)
        self._tap_telemetry()

        def start() -> None:
            self._dropout_until_s = max(self._dropout_until_s,
                                        at_s + duration_s)
            if self._frozen_sample is None:
                self._frozen_sample = (self.network.arrived_bytes,
                                       self.engine.now_s)

        def end() -> None:
            if self.engine.now_s >= self._dropout_until_s - 1e-12:
                self._frozen_sample = None

        self.engine.at(at_s, start, control=True)
        self.engine.at(at_s + duration_s, end, control=True)
        return event

    def _tap_telemetry(self) -> None:
        if self._telemetry_tapped:
            return
        self._telemetry_tapped = True
        original_sample = self.network.telemetry_sample

        def sample() -> Tuple[int, float]:
            if self._frozen_sample is not None:
                return self._frozen_sample
            return original_sample()

        self.network.telemetry_sample = sample  # type: ignore[method-assign]

    @property
    def total_lost(self) -> int:
        """Packets destroyed by all injected faults so far."""
        return sum(event.packets_lost for event in self.events)
