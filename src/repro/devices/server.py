"""Server: one SmartNIC + one CPU + the PCIe link between them.

:class:`Server` aggregates the three device models and installs one or
more chain placements onto them (co-located chains share the devices).
:class:`ServerProfile` bundles construction parameters so experiments
can describe hardware declaratively; :data:`PAPER_TESTBED` mirrors the
paper's evaluation box (Netronome Agilio CX 2x10GbE, 2x Xeon E5-2620
v2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..chain.nf import DeviceKind
from ..chain.placement import Placement, check_unique_names
from ..errors import ConfigurationError, PlacementError
from ..resources.model import (LoadModel, ThroughputSpec, shared_capacity,
                               shared_utilisation)
from ..units import gbps, usec
from .cpu import CPU
from .device import Device
from .pcie import DEFAULT_CROSSING_LATENCY_S, DEFAULT_PCIE_BANDWIDTH_BPS, PCIeLink
from .smartnic import SmartNIC


@dataclass(frozen=True)
class ServerProfile:
    """Declarative hardware description used to build a :class:`Server`."""

    name: str = "server"
    nic_port_rate_bps: float = gbps(10.0)
    nic_num_ports: int = 2
    nic_queue_packets: int = 1024
    #: Make the Ethernet ports physical (frames queue at line rate);
    #: see :class:`repro.devices.smartnic.SmartNIC`.
    nic_model_port_contention: bool = False
    cpu_sockets: int = 2
    cpu_cores_per_socket: int = 6
    cpu_frequency_ghz: float = 2.10
    cpu_queue_packets: int = 4096
    pcie_bandwidth_bps: float = DEFAULT_PCIE_BANDWIDTH_BPS
    pcie_crossing_latency_s: float = DEFAULT_CROSSING_LATENCY_S
    #: Enable the detailed PCIe transmission model (crossings queue on
    #: the link); see :class:`repro.devices.pcie.PCIeLink`.
    pcie_model_contention: bool = False

    def build(self) -> "Server":
        """Construct the server this profile describes."""
        return Server(
            nic=SmartNIC(f"{self.name}/nic", self.nic_port_rate_bps,
                         self.nic_num_ports, self.nic_queue_packets,
                         self.nic_model_port_contention),
            cpu=CPU(f"{self.name}/cpu", self.cpu_sockets,
                    self.cpu_cores_per_socket, self.cpu_frequency_ghz,
                    self.cpu_queue_packets),
            pcie=PCIeLink(self.pcie_bandwidth_bps,
                          self.pcie_crossing_latency_s,
                          self.pcie_model_contention),
            name=self.name)


#: The paper's evaluation testbed (S3).
PAPER_TESTBED = ServerProfile(name="paper-testbed")


class Server:
    """One NFV server: SmartNIC, CPU, and the PCIe link joining them."""

    def __init__(self, nic: Optional[SmartNIC] = None,
                 cpu: Optional[CPU] = None,
                 pcie: Optional[PCIeLink] = None,
                 name: str = "server") -> None:
        self.name = name
        self.nic = nic or SmartNIC(f"{name}/nic")
        self.cpu = cpu or CPU(f"{name}/cpu")
        self.pcie = pcie or PCIeLink()
        self._placements: Tuple[Placement, ...] = ()
        #: Offered load used by the most recent refresh_demand call;
        #: the chaos invariant checker recomputes utilisation from it
        #: to verify demand was refreshed after migrations/rollbacks.
        self.last_refresh_bps: Optional[ThroughputSpec] = None

    # -- placement installation ---------------------------------------------

    def device(self, kind: DeviceKind) -> Device:
        """The device object of the given kind."""
        return self.nic if kind is DeviceKind.SMARTNIC else self.cpu

    def install(self, *placements: Placement) -> None:
        """Host every NF of each placement on its assigned device.

        One placement per co-located chain; NF names must be unique
        across them.  Replaces whatever was installed before.
        """
        if not placements:
            raise ConfigurationError("need at least one placement")
        check_unique_names(placements)
        self.clear()
        for placement in placements:
            for nf in placement.chain:
                self.device(placement.device_of(nf.name)).host(nf)
        self._placements = placements

    def clear(self) -> None:
        """Evict all hosted NFs (between experiments)."""
        for device in (self.nic, self.cpu):
            for nf in device.hosted_nfs():
                device.evict(nf.name)
            device.set_demand(0.0)
        self.pcie.reset()
        self.nic.reset_ports()
        self._placements = ()

    @property
    def placements(self) -> Tuple[Placement, ...]:
        """Every installed chain's current placement, in install order."""
        if not self._placements:
            raise PlacementError(
                f"server {self.name!r} has no installed placement")
        return self._placements

    @property
    def placement(self) -> Placement:
        """The installed placement of a single-chain server."""
        placements = self.placements
        if len(placements) > 1:
            raise PlacementError(
                f"server {self.name!r} hosts {len(placements)} chains; "
                "this needs a single-chain server")
        return placements[0]

    def apply_move(self, nf_name: str, to: DeviceKind) -> Placement:
        """Move one NF between devices, updating hosting and placement.

        This is the mechanical half of a migration (the state-transfer
        timing lives in :mod:`repro.migration`).  The NF's server-unique
        name finds its chain.  Returns that chain's new placement.
        """
        placements = self.placements
        # An unknown name falls to chain 0, whose moved() raises the
        # uniform unknown-NF error.
        index = next((i for i, placement in enumerate(placements)
                      if nf_name in placement.chain), 0)
        placement = placements[index]
        new_placement = placement.moved(nf_name, to)  # validates
        nf = placement.chain.get(nf_name)
        self.device(to.other()).evict(nf_name)
        self.device(to).host(nf)
        self._placements = (placements[:index] + (new_placement,)
                            + placements[index + 1:])
        return new_placement

    # -- load bookkeeping -----------------------------------------------------

    def refresh_demand(self, throughput: ThroughputSpec
                       ) -> Tuple[LoadModel, ...]:
        """Recompute both devices' aggregate demand for a throughput level.

        Called by the runner at the start of a run and after each
        migration so the processor-sharing slowdown matches the paper's
        utilisation sums.  ``throughput`` applies to every chain; a
        per-NF map covers co-located chains with different loads.
        Returns one load model per chain, in install order.
        """
        placements = self.placements
        models = tuple(LoadModel(placement, throughput)
                       for placement in placements)
        self.last_refresh_bps = throughput
        for device in (self.nic, self.cpu):
            device.set_demand(shared_utilisation(models, device.kind),
                              shared_capacity(placements, device.kind))
        return models
