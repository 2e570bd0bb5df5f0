#!/usr/bin/env python3
"""Failure drill: crash an NF mid-run and watch the data plane recover.

Resilience is the part of a control plane no figure shows.  This drill
runs the canonical chain at a healthy load, crashes the Monitor for
half a millisecond (process respawn), injects 5% random ingress loss
(a flaky optic), and reports what the chain delivered, lost, and how
the latency distribution looks around the fault.

Run:  python examples/failure_drill.py
"""

from repro.harness.scenarios import figure1
from repro.harness.tables import render_table
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector
from repro.sim.network import ChainNetwork
from repro.telemetry.histogram import LatencyHistogram
from repro.traffic.generators import ConstantBitRate
from repro.traffic.packet import FixedSize
from repro.units import as_usec, gbps


def main() -> None:
    scenario = figure1()
    server = scenario.build_server()
    server.refresh_demand(gbps(1.2))
    engine = Engine()
    network = ChainNetwork(server, engine)

    generator = ConstantBitRate(gbps(1.2), FixedSize(256),
                                duration_s=0.01)
    for packet in generator.packets():
        network.inject(packet)

    injector = FaultInjector(network, engine, seed=13)
    crash = injector.crash_nf("monitor", at_s=0.004, downtime_s=0.0005)
    loss = injector.random_loss(0.05)

    engine.run()
    network.check_conservation()

    print("Fault drill on the Figure-1 chain at 1.2 Gbps:")
    print(render_table(
        ["event", "detail", "packets lost"],
        [["nf crash", "monitor down 4.0-4.5 ms",
          str(crash.packets_lost)],
         ["ingress loss", "5% Bernoulli", str(loss.packets_lost)]]))
    print(f"\ninjected {network.injected}, delivered "
          f"{len(network.delivered)}, dropped {network.dropped} "
          f"(= crash {crash.packets_lost} + wire {loss.packets_lost})")

    histogram = LatencyHistogram(buckets_per_decade=6)
    histogram.extend(p.latency_s for p in network.delivered)
    print("\nLatency distribution of the survivors:")
    print(histogram.render(width=40))
    print(f"\np99 via histogram: "
          f"{as_usec(histogram.quantile(0.99)):.0f} us "
          f"(steady chain sits near 122 us — the survivors were "
          "unaffected; faults dropped packets, they did not delay them)")


if __name__ == "__main__":
    main()
