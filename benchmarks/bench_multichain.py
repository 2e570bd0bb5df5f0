"""Ablation A6 (extension): PAM across co-located chains.

Real servers consolidate several chains onto one SmartNIC (CoCo [5]).
This bench co-locates two chains, overloads the shared NIC through one
of them, and shows that PAM over both chains' load models picks the
globally cheapest
border vNF — possibly from the *other* chain — while keeping every
chain's PCIe crossing count non-increasing.  The simulation half
demonstrates interference: the victim chain's latency rises purely
because its neighbour overloads the shared device, and the PAM plan
restores it.
"""

import pytest

from conftest import report
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

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC


def chain_a():
    return (ChainBuilder("a", profiles=catalog.FIGURE1_SCENARIO)
            .cpu("load_balancer", rename="a/lb")
            .nic("logger", rename="a/logger")
            .nic("monitor", rename="a/monitor")
            .build(egress=C))[1]


def chain_b():
    return (ChainBuilder("b", profiles=catalog.FIGURE1_SCENARIO)
            .nic("firewall", rename="b/firewall")
            .nic("monitor", rename="b/monitor")
            .cpu("load_balancer", rename="b/lb")
            .build())[1]


def run_pair(rate_a, rate_b, placements=None):
    server = ServerProfile().build()
    server.install(*(placements or (chain_a(), chain_b())))
    runner = SimulationRunner(server, [
        ConstantBitRate(rate_a, FixedSize(256), 0.006),
        ConstantBitRate(rate_b, FixedSize(256), 0.006, seed=2),
    ])
    return {r.final_placement.chain.name: r for r in runner.run_chains()}


def test_multichain_pam(benchmark):
    state = {}

    def run():
        # Phase 1: chain a overloads the shared NIC; chain b is innocent.
        state["before"] = run_pair(gbps(1.1), gbps(1.0))
        state["plan"] = PAMPolicy().select(
            (LoadModel(chain_a(), gbps(1.1)), LoadModel(chain_b(), gbps(1.0))))
        state["after"] = run_pair(gbps(1.1), gbps(1.0),
                                  placements=state["plan"].afters)
        return state

    benchmark.pedantic(run, rounds=1, iterations=1)

    plan = state["plan"]
    rows = []
    for phase in ("before", "after"):
        for name in ("a", "b"):
            result = state[phase][name]
            rows.append([phase, name,
                         f"{as_usec(result.latency.mean_s):.1f}",
                         f"{as_usec(result.latency.p99_s):.1f}",
                         str(result.dropped)])
    moves = ", ".join(f"{a.nf_name} (dPCIe {a.crossing_delta:+d})"
                      for a in plan.actions)
    report("Ablation A6 — PAM across two co-located chains",
           render_table(["phase", "chain", "mean (us)", "p99 (us)",
                         "dropped"], rows) + f"\n\nPAM moved: {moves}")

    # Shape: the plan alleviates using border moves only.
    assert plan.alleviates
    assert all(a.crossing_delta <= 0 for a in plan.actions)
    after = (LoadModel(plan.afters[0], gbps(1.1)),
             LoadModel(plan.afters[1], gbps(1.0)))
    assert shared_utilisation(after, S) < 1.0
    assert shared_utilisation(after, C) < 1.0
    # The innocent chain's tail recovers after the plan (shared-device
    # interference is gone): p99 strictly improves.
    assert state["after"]["b"].latency.p99_s < \
        state["before"]["b"].latency.p99_s
