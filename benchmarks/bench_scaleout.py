"""Ablation A4: the scale-out fallback when migration cannot help.

The paper's closing remark: "if both CPU and SmartNIC are overloaded,
which rarely happens, the network operator must start another instance"
(per OpenNF).  This bench drives the canonical chain past every
migration policy's feasible region and shows the replication plan the
fallback produces, including the flow-hash split skew that an even-split
analysis would hide.
"""

import pytest

from conftest import report
from repro.baselines.naive import NaivePolicy
from repro.baselines.scaleout import ScaleOutFallbackPolicy, plan_scaleout
from repro.core.pam import select as pam_select
from repro.errors import ScaleOutRequired
from repro.harness.scenarios import figure1
from repro.harness.tables import render_table
from repro.resources.model import LoadModel
from repro.traffic.flows import FlowTable
from repro.units import as_gbps, gbps

LOADS_GBPS = (1.8, 2.0, 2.2, 2.4, 2.6, 2.8)


def test_scaleout_fallback(benchmark):
    scenario = figure1()
    rows = []

    def run():
        rows.clear()
        flow_table = FlowTable(num_flows=128, seed=5)
        for load_gbps in LOADS_GBPS:
            load = gbps(load_gbps)
            try:
                plan = pam_select(scenario.placement, load, strict=True)
                action = f"pam: migrate {', '.join(plan.migrated_names)}"
                skew = ""
            except ScaleOutRequired:
                try:
                    scale = plan_scaleout(scenario.placement, load,
                                          flow_table=flow_table)
                    action = (f"scale out {scale.nf_name} "
                              f"x{scale.instances}")
                    skew = (f"worst share {scale.worst_share:.2f} "
                            f"(even {scale.even_share:.2f})")
                except ScaleOutRequired:
                    action = "needs another server"
                    skew = ""
            rows.append([f"{load_gbps:.1f}", action, skew])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    report("Ablation A4 — migration feasibility and the scale-out fallback",
           render_table(["offered (Gbps)", "action", "hash-split skew"],
                        rows))

    actions = [row[1] for row in rows]
    # The regime progression: migrate -> replicate -> new server.
    assert actions[0].startswith("pam")
    assert any(a.startswith("scale out") for a in actions)
    assert actions[-1] == "needs another server"

    # The fallback wrapper passes migrations through while they work...
    policy = ScaleOutFallbackPolicy(NaivePolicy())
    plan = policy.select((LoadModel(scenario.placement, gbps(1.8)),))
    assert plan.migrated_names == ["monitor"]
    assert policy.scaleout_plans == []
    # ...and past every option the exception *is* the answer: on this
    # chain, whenever whole-NF migration is infeasible (>= 2.86 Gbps)
    # replication of the bottleneck cannot fit either, so 3.0 Gbps
    # needs another server.
    with pytest.raises(ScaleOutRequired):
        ScaleOutFallbackPolicy(NaivePolicy()).select(
            (LoadModel(scenario.placement, gbps(3.0)),))


def test_scaleout_skew_grows_with_instances(benchmark):
    """Hash splits of Zipf traffic are uneven; skew grows with fan-out."""
    flow_table = FlowTable(num_flows=128, seed=5)

    def run():
        return [max(len(b) for b in flow_table.split(k)) / 128
                for k in (2, 3, 4, 6, 8)]

    shares = benchmark.pedantic(run, rounds=1, iterations=1)
    evens = [1 / k for k in (2, 3, 4, 6, 8)]
    rows = [[str(k), f"{even:.3f}", f"{share:.3f}",
             f"{share / even:.2f}x"]
            for k, even, share in zip((2, 3, 4, 6, 8), evens, shares)]
    report("Ablation A4b — flow-hash split skew vs instance count",
           render_table(["instances", "even share", "worst share",
                         "skew"], rows))
    for even, share in zip(evens, shares):
        assert share >= even
