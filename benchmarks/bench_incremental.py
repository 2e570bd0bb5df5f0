"""Ablation A10 (extension): full-pause vs incremental state migration.

The simple OpenNF mode (pause, DMA everything, resume) makes the NF
unavailable for the whole transfer; the per-flow mode moves state in
batches while the NF keeps serving.  Sweeping the batch count maps the
frontier: worst-case packet latency falls roughly with 1/batches while
the total migration duration creeps up with per-batch control overhead.
Measured at a healthy load (1.2 Gbps) so the transient is purely the
mechanism's own buffering.
"""

import pytest

from conftest import report
from repro.chain.nf import DeviceKind
from repro.harness.scenarios import figure1
from repro.harness.tables import render_table
from repro.migration.executor import MigrationExecutor
from repro.migration.incremental import IncrementalMigrator
from repro.sim.engine import Engine
from repro.sim.network import ChainNetwork
from repro.traffic.packet import Packet
from repro.units import as_usec, gbps

C = DeviceKind.CPU
FLOWS = 50_000  # ~6.4 MB of monitor state
BATCHES = (1, 4, 16, 64)


def run_one(batches):
    """(worst latency, duration) migrating with that many batches.

    batches=0 means the full-pause executor.
    """
    server = figure1().build_server()
    server.refresh_demand(gbps(1.2))
    engine = Engine()
    network = ChainNetwork(server, engine)
    for i in range(4000):
        network.inject(Packet(seq=i, size_bytes=256, arrival_s=i * 1.7e-6))
    if batches == 0:
        from repro.baselines.naive import select as naive_select
        executor = MigrationExecutor(server, network, engine,
                                     active_flows=FLOWS)
        plan = naive_select(figure1().placement, gbps(1.8))
        engine.at(5e-4, lambda: executor.apply(plan, gbps(1.2)),
                  control=True)
        engine.run()
        record = executor.records[0]
        duration = record.completed_s - record.started_s
    else:
        migrator = IncrementalMigrator(server, network, engine,
                                       batches=batches,
                                       active_flows=FLOWS)
        engine.at(5e-4, lambda: migrator.migrate("monitor", C, gbps(1.2)),
                  control=True)
        engine.run()
        record = migrator.records[0]
        duration = record.completed_s - record.started_s
    worst = max(p.latency_s for p in network.delivered)
    dropped = network.dropped
    return worst, duration, dropped


def test_incremental_frontier(benchmark):
    state = {}

    def run():
        state["full"] = run_one(0)
        for batches in BATCHES:
            state[batches] = run_one(batches)
        return state

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [["full pause", f"{as_usec(state['full'][1]):.0f}",
             f"{as_usec(state['full'][0]):.0f}", str(state["full"][2])]]
    for batches in BATCHES:
        worst, duration, dropped = state[batches]
        rows.append([f"{batches} batches", f"{as_usec(duration):.0f}",
                     f"{as_usec(worst):.0f}", str(dropped)])
    report(
        "Ablation A10 — full-pause vs incremental migration "
        f"({FLOWS} flows, ~6.4 MB state)",
        render_table(["mode", "migration (us)", "worst latency (us)",
                      "dropped"], rows))

    # Worst-case transient shrinks monotonically with batch count...
    worsts = [state[b][0] for b in BATCHES]
    assert all(a >= b for a, b in zip(worsts, worsts[1:]))
    # ...and 16+ batches beat the full pause by >3x, loss-free.
    assert state[16][0] < state["full"][0] / 3
    assert all(state[b][2] == 0 for b in BATCHES)
    # The price: duration never beats the raw transfer time.
    assert all(state[b][1] >= state["full"][1] * 0.8 for b in BATCHES)
