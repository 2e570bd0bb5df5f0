"""Canonical scenarios from the paper.

The Figure 1 service chain (derived from NFP [7]): a Load Balancer on
the host CPU steering inbound traffic, then Logger, Monitor, and
Firewall offloaded to the SmartNIC, with the chain terminating at a host
application (``egress=CPU`` — which is what makes Firewall the *right
border* vNF exactly as the paper states).

At the canonical throughput of 1.8 Gbps:

* the SmartNIC runs at ``1.8 * (1/4 + 1/3.2 + 1/10) = 1.19`` — overloaded;
* Monitor (3.2 Gbps) is the NIC bottleneck, so the naive policy migrates
  it mid-chain and pays +2 PCIe crossings (Figure 1b);
* PAM migrates the left-border Logger: CPU utilisation becomes
  ``1.8/4 + 1.8/4 = 0.9 < 1`` (Eq. 2 holds), the NIC drops to
  ``1.8 * (1/3.2 + 1/10) = 0.74 < 1`` (Eq. 3 holds), and the crossing
  count is unchanged (Figure 1c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from ..chain.catalog import EXTENDED, FIGURE1_SCENARIO, TABLE1
from ..chain.builder import ChainBuilder
from ..chain.chain import ServiceChain
from ..chain.nf import DeviceKind, NFProfile
from ..chain.placement import Placement
from ..devices.server import PAPER_TESTBED, Server, ServerProfile
from ..errors import ConfigurationError
from ..units import gbps


#: The chain throughput at which the Figure 1 overload story plays out.
FIGURE1_THROUGHPUT_BPS = gbps(1.8)

#: A pre-spike operating point sustainable by every placement involved
#: in the comparison (before: capacity 1.509 Gbps * 0.93 utilisation).
FIGURE1_BASE_LOAD_BPS = gbps(1.4)

#: A saturating offered load for the throughput comparison (above every
#: placement's capacity knee except the naive-after one).
FIGURE1_SATURATION_BPS = gbps(2.6)


@dataclass(frozen=True)
class Scenario:
    """A named (chain, placement, server profile, load) bundle."""

    name: str
    chain: ServiceChain
    placement: Placement
    server_profile: ServerProfile = PAPER_TESTBED
    throughput_bps: float = FIGURE1_THROUGHPUT_BPS

    def build_server(self) -> Server:
        """A fresh server with the scenario's placement installed."""
        server = self.server_profile.build()
        server.install(self.placement)
        return server

    def with_placement(self, placement: Placement,
                       suffix: str = "variant") -> "Scenario":
        """The same scenario under a different placement."""
        return Scenario(name=f"{self.name}/{suffix}", chain=self.chain,
                        placement=placement,
                        server_profile=self.server_profile,
                        throughput_bps=self.throughput_bps)

    def renamed(self, new_name: str) -> "Scenario":
        """The same scenario under a different name."""
        return Scenario(name=new_name, chain=self.chain,
                        placement=self.placement,
                        server_profile=self.server_profile,
                        throughput_bps=self.throughput_bps)


def figure1(profiles: Mapping[str, NFProfile] = FIGURE1_SCENARIO,
            server_profile: ServerProfile = PAPER_TESTBED) -> Scenario:
    """The paper's Figure 1(a) configuration."""
    chain, placement = (
        ChainBuilder("figure1", profiles=profiles)
        .cpu("load_balancer")
        .nic("logger")
        .nic("monitor")
        .nic("firewall")
        .build(egress=DeviceKind.CPU))
    return Scenario(name="figure1", chain=chain, placement=placement,
                    server_profile=server_profile)


def table1_chain() -> Scenario:
    """The same chain under the literal Table 1 capacities.

    Here Logger (2 Gbps) is both the NIC bottleneck *and* a border NF,
    so naive and PAM pick the same vNF — the degenerate case DESIGN.md
    discusses.
    """
    return figure1(profiles=TABLE1).renamed("table1")


def _extended_nf_cycle() -> List[str]:
    # NFs that can run on both devices, ordered for chain building.
    return ["gateway", "vpn", "logger", "monitor", "ids",
            "firewall", "nat", "cache"]


def datacenter_inline(server_profile: ServerProfile = PAPER_TESTBED
                      ) -> Scenario:
    """A data-centre inline chain: gateway and firewall offloaded, the
    memory-hungry IDS and the host-facing load balancer on the CPU.

    Bump-in-the-wire (NIC on both ends): the NIC segment sits mid-chain
    between the wire and a CPU island, giving asymmetric borders.
    """
    chain, placement = (
        ChainBuilder("datacenter", profiles=EXTENDED)
        .nic("gateway")
        .nic("firewall")
        .cpu("ids")
        .nic("nat")
        .cpu("load_balancer")
        .build())
    return Scenario(name="datacenter", chain=chain, placement=placement,
                    server_profile=server_profile,
                    throughput_bps=gbps(1.2))


def enterprise_edge(server_profile: ServerProfile = PAPER_TESTBED
                    ) -> Scenario:
    """An enterprise edge box: VPN termination and firewall on the NIC,
    monitoring and caching on the host, host-terminated (egress CPU).
    """
    chain, placement = (
        ChainBuilder("edge", profiles=EXTENDED)
        .nic("vpn")
        .nic("firewall")
        .nic("monitor")
        .cpu("cache")
        .build(egress=DeviceKind.CPU))
    return Scenario(name="edge", chain=chain, placement=placement,
                    server_profile=server_profile,
                    # Past the NIC knee (1.73 Gbps): the edge scenario
                    # arrives overloaded and PAM pushes the monitor.
                    throughput_bps=gbps(1.8))


def long_chain(num_nfs: int, nic_fraction: float = 0.75,
               server_profile: ServerProfile = PAPER_TESTBED) -> Scenario:
    """An ablation chain of ``num_nfs`` NFs from the extended catalog.

    The chain starts with a CPU-resident load balancer, then a NIC
    segment covering roughly ``nic_fraction`` of the remaining NFs, with
    the tail back on the CPU — giving both a left and a right border.
    """
    if num_nfs < 3:
        raise ConfigurationError("long_chain needs at least 3 NFs")
    if not (0.0 < nic_fraction <= 1.0):
        raise ConfigurationError("nic_fraction must be in (0, 1]")
    builder = ChainBuilder(f"long{num_nfs}", profiles=EXTENDED)
    builder.cpu("load_balancer")
    body = num_nfs - 1
    nic_count = max(1, round(body * nic_fraction))
    cycle = _extended_nf_cycle()
    for index in range(body):
        base = cycle[index % len(cycle)]
        rename = None if index < len(cycle) else f"{base}-{index}"
        if index < nic_count:
            builder.nic(base, rename=rename)
        else:
            builder.cpu(base, rename=rename)
    chain, placement = builder.build(egress=DeviceKind.CPU)
    return Scenario(name=f"long{num_nfs}", chain=chain, placement=placement,
                    server_profile=server_profile)
