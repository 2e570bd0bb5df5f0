"""Base processing-device model.

The paper's model (S2) treats a device as a shared resource pool: every
hosted NF consumes a fraction ``theta_cur / theta_i^D``, and the device
overloads when the fractions sum past 1.  The simulator realises that as
**processor sharing with slowdown**: when aggregate demand exceeds the
device, every hosted NF's effective service rate is scaled down by the
utilisation factor, so per-packet service times stretch and queues grow
— which is how an overloaded NPU or core complex behaves in practice.

A :class:`Device` is mutable simulation state (hosted NFs change when a
migration executes); the *planning* layer never touches it and works on
immutable :class:`~repro.chain.placement.Placement` objects instead.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..chain.nf import DeviceKind, NFProfile
from ..errors import ConfigurationError, PlacementError


class Device:
    """A processing device (SmartNIC or CPU) hosting NF instances."""

    #: Subclasses set this to the kind they model.
    kind: DeviceKind

    def __init__(self, name: str, queue_capacity_packets: int = 1024) -> None:
        if queue_capacity_packets <= 0:
            raise ConfigurationError("queue capacity must be positive")
        self.name = name
        self.queue_capacity_packets = queue_capacity_packets
        self._hosted: Dict[str, NFProfile] = {}
        #: Aggregate demand (sum of theta_cur/theta_i) most recently
        #: computed by the runner; drives :meth:`effective_rate`.
        self._demand: float = 0.0
        #: Aggregate sustainable chain rate over hosted NFs, bits/second.
        self._shared_capacity_bps: float = float("inf")
        #: Brownout derating: fraction of nominal capacity currently
        #: available (1.0 = healthy).  Fault injection lowers it to
        #: model thermal throttling / partial hardware failure; every
        #: hosted NF's effective service rate scales with it.
        self._derate: float = 1.0
        #: Permanent-failure flag: a dead device serves nothing and is
        #: never restored by expiring transient faults (see
        #: :meth:`fail`).  Recovery means moving the hosted NFs to a
        #: survivor, not resurrecting the device.
        self._failed: bool = False
        #: Memoised per-NF effective rates for the occupancy hot path;
        #: every mutation of hosting/load/health state clears it.
        self._rate_cache: Dict[str, float] = {}

    # -- hosting -----------------------------------------------------------

    def host(self, nf: NFProfile) -> None:
        """Install an NF instance on this device."""
        if not nf.can_run_on(self.kind):
            raise PlacementError(f"NF {nf.name!r} cannot run on {self.kind.value}")
        if nf.name in self._hosted:
            raise PlacementError(f"NF {nf.name!r} already hosted on {self.name}")
        self._hosted[nf.name] = nf
        self._rate_cache.clear()

    def evict(self, name: str) -> NFProfile:
        """Remove an NF instance (the first half of a migration)."""
        self._rate_cache.clear()
        try:
            return self._hosted.pop(name)
        except KeyError:
            raise PlacementError(
                f"NF {name!r} is not hosted on {self.name}") from None

    def hosts(self, name: str) -> bool:
        """Whether this device currently hosts NF ``name``."""
        return name in self._hosted

    def hosted_nfs(self) -> List[NFProfile]:
        """Currently hosted NFs (installation order)."""
        return list(self._hosted.values())

    # -- load ------------------------------------------------------------------

    def set_demand(self, demand: float,
                   shared_capacity_bps: Optional[float] = None) -> None:
        """Record aggregate utilisation demand (sum of theta_cur/theta_i).

        The simulation runner recomputes this whenever offered load or
        hosting changes; values above 1 mean overload.

        ``shared_capacity_bps`` is the device's aggregate sustainable
        chain rate ``1 / sum(1/theta_i)`` over hosted NFs.  When absent
        it is derived from the currently hosted NFs.
        """
        if demand < 0:
            raise ConfigurationError("demand must be >= 0")
        self._demand = demand
        if shared_capacity_bps is None:
            inverse = sum(1.0 / nf.capacity_on(self.kind)
                          for nf in self._hosted.values())
            shared_capacity_bps = float("inf") if inverse == 0 else 1.0 / inverse
        if shared_capacity_bps <= 0:
            raise ConfigurationError("shared capacity must be positive")
        self._shared_capacity_bps = shared_capacity_bps
        self._rate_cache.clear()

    @property
    def demand(self) -> float:
        """Most recently recorded aggregate demand."""
        return self._demand

    @property
    def derate(self) -> float:
        """Current brownout derating factor (1.0 = full capacity)."""
        return self._derate

    def set_derate(self, scale: float) -> None:
        """Scale the device's capacity to model a brownout.

        ``scale`` is the fraction of nominal capacity still available;
        pass 1.0 to restore full health.
        """
        if not (0.0 < scale <= 1.0):
            raise ConfigurationError("derate scale must be in (0, 1]")
        self._derate = scale
        self._rate_cache.clear()

    @property
    def is_failed(self) -> bool:
        """Whether the device has failed permanently (whole-device death)."""
        return self._failed

    def fail(self) -> None:
        """Mark the device permanently dead (NPU/core-complex failure).

        The data plane stops serving on this device (the network drops
        arrivals to stations still bound here and stations refuse to
        start service), but the wire and the PCIe/DMA engines are a
        *separate failure domain* and keep working — which is what lets
        the recovery planner evacuate the hosted NFs to the survivor.
        There is deliberately no ``unfail``: a transient capacity loss
        is a brownout (:meth:`set_derate`), not a failure.
        """
        self._failed = True
        self._rate_cache.clear()

    @property
    def overloaded(self) -> bool:
        """Whether recorded demand exceeds the device's capacity."""
        return self._demand > 1.0

    def effective_rate(self, nf: NFProfile) -> float:
        """The service rate ``nf`` currently enjoys on this device.

        Processor sharing: while the device has headroom every NF runs
        at its native theta; once aggregate demand exceeds 1 all hosted
        stations are persistently busy and each advances the chain at
        the device's aggregate sustainable rate ``1 / sum(1/theta_j)``
        — so delivered throughput saturates exactly at the utilisation
        model's capacity knee.
        """
        native = nf.capacity_on(self.kind) * self._derate
        if self._demand <= 1.0:
            return native
        return min(native, self._shared_capacity_bps * self._derate)

    def occupancy_time(self, nf: NFProfile, packet_bytes: int) -> float:
        """Seconds the server inside ``nf`` is *occupied* by one packet.

        This is the throughput-determining term: ``bits`` divided by the
        effective service rate.  The NF's fixed pipeline latency
        (``nf.base_latency_s``) is additional *delay* a packet
        experiences but does not occupy the server — real NFs are
        pipelined, so capacity is set by theta alone (Table 1), not by
        per-packet latency.
        """
        rate = self._rate_cache.get(nf.name)
        if rate is None:
            if not self.hosts(nf.name):
                raise PlacementError(
                    f"NF {nf.name!r} is not hosted on {self.name}")
            rate = self.effective_rate(nf)
            self._rate_cache[nf.name] = rate
        return (packet_bytes * 8.0) / rate

    def service_time(self, nf: NFProfile, packet_bytes: int) -> float:
        """Total per-packet delay in ``nf``: occupancy plus pipeline latency."""
        return self.occupancy_time(nf, packet_bytes) + nf.base_latency_s

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(self._hosted) or "-"
        return f"{type(self).__name__}({self.name!r}, hosts=[{names}])"
