"""SmartNIC device model.

Stands in for the paper's Netronome Agilio CX 2x10GbE: a NIC whose NPU
runs offloaded vNFs at per-NF capacities theta_i^S (Table 1), with the
Ethernet ports attached directly to it.  Servers hold "one or two
SmartNICs only" (S1), which is exactly why scale-out on the NIC is not
an option and PAM exists.
"""

from __future__ import annotations

from ..chain.nf import DeviceKind
from ..errors import ConfigurationError
from ..units import ETHERNET_OVERHEAD_BYTES, gbps, wire_time
from .device import Device


class SmartNIC(Device):
    """An NPU-based SmartNIC with its own Ethernet ports.

    ``model_port_contention`` makes the RX/TX ports physical: each
    frame's wire serialisation occupies the port exclusively, so
    offered loads above line rate queue at the port instead of teleporting
    into the chain.  Off by default — the paper's loads sit below line
    rate and the closed-form latency tests rely on contention-free wire
    terms.
    """

    kind = DeviceKind.SMARTNIC

    def __init__(self, name: str = "smartnic",
                 port_rate_bps: float = gbps(10.0),
                 num_ports: int = 2,
                 queue_capacity_packets: int = 1024,
                 model_port_contention: bool = False) -> None:
        super().__init__(name, queue_capacity_packets)
        if port_rate_bps <= 0:
            raise ConfigurationError("port rate must be positive")
        if num_ports <= 0:
            raise ConfigurationError("a NIC needs at least one port")
        self.port_rate_bps = port_rate_bps
        self.num_ports = num_ports
        self.model_port_contention = model_port_contention
        self._rx_busy_until_s = 0.0
        self._tx_busy_until_s = 0.0

    def rx_time(self, frame_bytes: int, now_s: float) -> float:
        """Ingress wire delay for one frame arriving at ``now_s``.

        With contention on, includes the wait for earlier frames still
        serialising into the RX port.  The contention-free branch is
        ``units.wire_time`` inlined — two wire terms per packet make
        this a hot path.
        """
        if not self.model_port_contention:
            return ((frame_bytes + ETHERNET_OVERHEAD_BYTES) * 8.0
                    / self.port_rate_bps)
        return self._port_time(frame_bytes, now_s, "_rx_busy_until_s")

    def tx_time(self, frame_bytes: int, now_s: float) -> float:
        """Egress wire delay for one frame handed to TX at ``now_s``."""
        if not self.model_port_contention:
            return ((frame_bytes + ETHERNET_OVERHEAD_BYTES) * 8.0
                    / self.port_rate_bps)
        return self._port_time(frame_bytes, now_s, "_tx_busy_until_s")

    def _port_time(self, frame_bytes: int, now_s: float,
                   busy_attr: str) -> float:
        serialise = wire_time(frame_bytes, self.port_rate_bps)
        if not self.model_port_contention:
            return serialise
        busy_until = getattr(self, busy_attr)
        start = max(now_s, busy_until)
        setattr(self, busy_attr, start + serialise)
        return (start - now_s) + serialise

    def reset_ports(self) -> None:
        """Clear port occupancy (between experiments)."""
        self._rx_busy_until_s = 0.0
        self._tx_busy_until_s = 0.0

    @property
    def line_rate_bps(self) -> float:
        """Ingress line rate of one port — the cap on offered load.

        The paper drives traffic through one 10 GbE port; multi-port
        aggregate rate is exposed separately as
        ``port_rate_bps * num_ports`` should an experiment need it.
        """
        return self.port_rate_bps

    def clamp_offered_load(self, offered_bps: float) -> float:
        """Offered load actually admitted by the wire (min with line rate)."""
        if offered_bps < 0:
            raise ConfigurationError("offered load must be >= 0")
        return min(offered_bps, self.line_rate_bps)
