#!/usr/bin/env python3
"""Two service chains sharing one SmartNIC — PAM across chains.

Real NFV servers consolidate several chains onto the same hardware
(CoCo, which the paper's resource model builds on).  When chain A's
traffic overloads the shared SmartNIC, chain B suffers too — its NFs
slow down on the saturated device even though its own load never
changed.  PAM over one load model per chain widens the border pool to
every co-located chain and picks the globally cheapest push-aside.

Run:  python examples/consolidation.py
"""

from repro.chain import catalog
from repro.chain.builder import ChainBuilder
from repro.chain.nf import DeviceKind
from repro.core.planner import PAMPolicy
from repro.devices.server import ServerProfile
from repro.harness.tables import render_table
from repro.resources.model import LoadModel, shared_utilisation
from repro.sim.runner import SimulationRunner
from repro.traffic.generators import ConstantBitRate
from repro.traffic.packet import FixedSize
from repro.units import as_usec, gbps


def build_chains():
    chain_a = (ChainBuilder("tenant-a", profiles=catalog.FIGURE1_SCENARIO)
               .cpu("load_balancer", rename="a/lb")
               .nic("logger", rename="a/logger")
               .nic("monitor", rename="a/monitor")
               .build(egress=DeviceKind.CPU))[1]
    chain_b = (ChainBuilder("tenant-b", profiles=catalog.FIGURE1_SCENARIO)
               .nic("firewall", rename="b/firewall")
               .nic("monitor", rename="b/monitor")
               .cpu("load_balancer", rename="b/lb")
               .build())[1]
    return chain_a, chain_b


def measure(chain_a, chain_b, rate_a, rate_b):
    server = ServerProfile().build()
    server.install(chain_a, chain_b)
    runner = SimulationRunner(server, [
        ConstantBitRate(rate_a, FixedSize(256), 0.006),
        ConstantBitRate(rate_b, FixedSize(256), 0.006, seed=2),
    ])
    return {r.final_placement.chain.name: r for r in runner.run_chains()}


def main() -> None:
    chain_a, chain_b = build_chains()
    rate_a, rate_b = gbps(1.1), gbps(1.0)

    loads = (LoadModel(chain_a, rate_a), LoadModel(chain_b, rate_b))
    nic = shared_utilisation(loads, DeviceKind.SMARTNIC)
    cpu = shared_utilisation(loads, DeviceKind.CPU)
    print(f"Shared SmartNIC utilisation: {nic:.2f} "
          f"(chain A pushed it past 1.0)")
    print(f"Shared CPU utilisation:      {cpu:.2f}\n")

    plan = PAMPolicy().select(loads)
    moves = ", ".join(
        f"{a.nf_name} (dPCIe {a.crossing_delta:+d})" for a in plan.actions)
    print(f"PAM plan across both chains: {moves}\n")

    before = measure(chain_a, chain_b, rate_a, rate_b)
    after = measure(*plan.afters, rate_a, rate_b)

    rows = []
    for phase, results in (("before", before), ("after", after)):
        for name in sorted(results):
            r = results[name]
            rows.append([phase, name,
                         f"{as_usec(r.latency.mean_s):.1f}",
                         f"{as_usec(r.latency.p99_s):.1f}"])
    print(render_table(["phase", "chain", "mean (us)", "p99 (us)"], rows))
    print("\nNote how tenant B's tail recovers although only tenant A's")
    print("chain was touched: the shared-device interference is gone.")


if __name__ == "__main__":
    main()
