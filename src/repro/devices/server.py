"""Server: one SmartNIC + one CPU + the PCIe link between them.

:class:`Server` aggregates the three device models and installs a chain
placement onto them.  :class:`ServerProfile` bundles construction
parameters so experiments can describe hardware declaratively;
:data:`PAPER_TESTBED` mirrors the paper's evaluation box (Netronome
Agilio CX 2x10GbE, 2x Xeon E5-2620 v2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..chain.nf import DeviceKind
from ..chain.placement import Placement
from ..errors import PlacementError
from ..resources.model import LoadModel, ThroughputSpec
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
        self._placement: Optional[Placement] = None
        #: Offered load used by the most recent refresh_demand call;
        #: the chaos invariant checker recomputes utilisation from it
        #: to verify demand was refreshed after migrations/rollbacks.
        self.last_refresh_bps: Optional[float] = None

    # -- placement installation ---------------------------------------------

    def device(self, kind: DeviceKind) -> Device:
        """The device object of the given kind."""
        return self.nic if kind is DeviceKind.SMARTNIC else self.cpu

    def install(self, placement: Placement) -> None:
        """Host every NF of ``placement`` on its assigned device.

        Replaces any previously installed placement.
        """
        self.clear()
        for nf in placement.chain:
            self.device(placement.device_of(nf.name)).host(nf)
        self._placement = placement

    def clear(self) -> None:
        """Evict all hosted NFs (between experiments)."""
        for device in (self.nic, self.cpu):
            for nf in device.hosted_nfs():
                device.evict(nf.name)
            device.set_demand(0.0)
        self.pcie.reset()
        self.nic.reset_ports()
        self._placement = None

    @property
    def placement(self) -> Placement:
        """The currently installed placement."""
        if self._placement is None:
            raise PlacementError(f"server {self.name!r} has no installed placement")
        return self._placement

    def apply_move(self, nf_name: str, to: DeviceKind) -> Placement:
        """Move one NF between devices, updating hosting and placement.

        This is the mechanical half of a migration (the state-transfer
        timing lives in :mod:`repro.migration`).  Returns the new
        placement.
        """
        placement = self.placement
        new_placement = placement.moved(nf_name, to)  # validates
        nf = placement.chain.get(nf_name)
        self.device(to.other()).evict(nf_name)
        self.device(to).host(nf)
        self._placement = new_placement
        return new_placement

    # -- load bookkeeping -----------------------------------------------------

    def refresh_demand(self, throughput: ThroughputSpec) -> LoadModel:
        """Recompute both devices' aggregate demand for a throughput level.

        Called by the runner at the start of a run and after each
        migration so the processor-sharing slowdown matches the paper's
        utilisation sums.
        """
        model = LoadModel(self.placement, throughput)
        self.last_refresh_bps = throughput
        self.nic.set_demand(
            model.nic_load().utilisation,
            model.max_sustainable_throughput(DeviceKind.SMARTNIC))
        self.cpu.set_demand(
            model.cpu_load().utilisation,
            model.max_sustainable_throughput(DeviceKind.CPU))
        return model
