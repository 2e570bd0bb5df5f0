#!/usr/bin/env python3
"""Capacity planning for a longer service chain.

Uses the extended NF catalog (gateway, VPN, IDS, NAT, ...) to build a
six-NF chain, then answers the questions an operator would ask before
deploying it:

* What throughput can each placement sustain (the capacity knee)?
* Where are the border vNFs — i.e. which NFs can PAM push aside
  without latency cost when the NIC overloads?
* At what load does PAM run out of CPU headroom and scale-out become
  necessary?

Run:  python examples/chain_planning.py
"""

from repro.baselines.scaleout import plan_scaleout
from repro.chain.nf import DeviceKind
from repro.core.border import border_sets
from repro.core.pam import select
from repro.errors import ScaleOutRequired
from repro.harness.scenarios import long_chain
from repro.harness.tables import render_table
from repro.resources.model import LoadModel
from repro.units import as_gbps, gbps


def main() -> None:
    scenario = long_chain(6)
    placement = scenario.placement
    print(f"Chain: {' -> '.join(scenario.chain.names())}")
    print(f"Placement: {placement!r}")
    print(f"PCIe crossings: {placement.pcie_crossings()}\n")

    load = LoadModel(placement, gbps(1.0))
    print("Capacity knees (uniform chain throughput):")
    print(f"  SmartNIC segment: "
          f"{as_gbps(load.max_sustainable_throughput(DeviceKind.SMARTNIC)):.2f} Gbps")
    print(f"  CPU segment:      "
          f"{as_gbps(load.max_sustainable_throughput(DeviceKind.CPU)):.2f} Gbps")
    print(f"  whole chain:      {as_gbps(load.chain_capacity()):.2f} Gbps\n")

    sets = border_sets(placement)
    print(f"Border vNFs: left={sorted(sets.left)} right={sorted(sets.right)}\n")

    print("PAM's plan as offered load grows:")
    rows = []
    for load_gbps in (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5):
        throughput = gbps(load_gbps)
        nic_util = LoadModel(placement, throughput).nic_load().utilisation
        try:
            plan = select(placement, throughput, strict=True)
            action = ", ".join(plan.migrated_names) if plan.actions \
                else "(no overload)" if plan.alleviates else "-"
            rows.append([f"{load_gbps:.1f}", f"{nic_util:.2f}", action,
                         f"{plan.total_crossing_delta:+d}"])
        except ScaleOutRequired:
            try:
                scale = plan_scaleout(placement, throughput)
                action = (f"scale out {scale.nf_name} "
                          f"x{scale.instances}")
            except ScaleOutRequired:
                action = "needs another server"
            rows.append([f"{load_gbps:.1f}", f"{nic_util:.2f}", action, ""])
    print(render_table(
        ["offered (Gbps)", "NIC util", "PAM action", "crossing delta"],
        rows))


if __name__ == "__main__":
    main()
