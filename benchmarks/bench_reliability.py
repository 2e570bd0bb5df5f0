"""Reliability planning: the downtime-vs-headroom Pareto frontier.

Sweeps the replica byte budget across the four reliability policies,
plans each (policy, budget) cell against the figure-1 device-kill
worst case, then executes every plan for real through the resilient
controller.  The artifact is ``BENCH_reliability.json``: per-cell
predicted downtime, survivor headroom (capacity net of replica sync)
and shed damage, the measured time-to-recover, and the Pareto frontier
over (downtime, headroom).

The headline property asserted here — and the reason the joint planner
exists — is that benefit-per-byte replication **strictly dominates**
naive first-fit on at least one frontier point: naive blows its budget
mirroring the logger's large stateless state image (pure sync tax,
zero downtime saved), so joint wins both axes at the same budget.
"""

import json
from pathlib import Path

from conftest import report
from repro.reliability.campaign import config_for, plan_for
from repro.resilience.campaign import run_outcome
from repro.resilience.scenarios import scenario_case
from repro.units import as_gbps, as_msec

SEED = 7
DURATION_S = 0.02
SCENARIO = "device-kill"
#: Replica byte budgets swept (0 = pure reactive; 320 KiB fits exactly
#: the monitor + firewall; 1 MiB also fits the logger's state image).
BUDGETS = (0, 65536, 327680, 1 << 20)
POLICIES = ("joint", "naive", "pam", "scaleout")
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_reliability.json"


def _measure_cell(policy, budget):
    plan = plan_for(policy, SCENARIO, budget)
    outcome = run_outcome(scenario_case(SCENARIO, SEED, DURATION_S),
                          config_for(plan))
    return {
        "policy": policy,
        "budget_bytes": budget,
        "prewarmed": list(plan.prewarmed),
        "spent_bytes": plan.spent_bytes,
        "predicted_downtime_s": plan.predicted_downtime_s,
        "headroom_bps": plan.headroom_bps,
        "sync_bps": plan.sync_bps,
        "shed_damage": plan.shed_damage,
        "measured_downtime_s": outcome["downtime_s"],
        "shed_fraction": outcome["shed_fraction"],
        "protected_shed_packets": outcome["protected_shed_packets"],
        "recovery_status": outcome["recoveries"][0]["status"],
    }


def _on_frontier(point, points):
    """Non-dominated on (predicted downtime down, headroom up)."""
    for other in points:
        if other is point:
            continue
        no_worse = (other["predicted_downtime_s"]
                    <= point["predicted_downtime_s"]
                    and other["headroom_bps"] >= point["headroom_bps"])
        better = (other["predicted_downtime_s"]
                  < point["predicted_downtime_s"]
                  or other["headroom_bps"] > point["headroom_bps"])
        if no_worse and better:
            return False
    return True


def _dominates(winner, loser):
    """Strictly better on both Pareto axes."""
    return (winner["predicted_downtime_s"] < loser["predicted_downtime_s"]
            and winner["headroom_bps"] > loser["headroom_bps"])


def test_reliability_pareto(benchmark):
    points = []

    def run():
        points.clear()
        for budget in BUDGETS:
            for policy in POLICIES:
                points.append(_measure_cell(policy, budget))

    benchmark.pedantic(run, rounds=1, iterations=1)

    for point in points:
        point["pareto"] = _on_frontier(point, points)
    frontier = sorted((p for p in points if p["pareto"]),
                      key=lambda p: (p["predicted_downtime_s"],
                                     -p["headroom_bps"]))
    by_cell = {(p["policy"], p["budget_bytes"]): p for p in points}
    dominated_budgets = [
        budget for budget in BUDGETS
        if _dominates(by_cell[("joint", budget)],
                      by_cell[("naive", budget)])
        and by_cell[("joint", budget)]["pareto"]]

    payload = {
        "benchmark": "reliability",
        "scenario": SCENARIO,
        "seed": SEED,
        "duration_s": DURATION_S,
        "budgets": list(BUDGETS),
        "policies": list(POLICIES),
        "series": points,
        "frontier": [{"policy": p["policy"],
                      "budget_bytes": p["budget_bytes"],
                      "predicted_downtime_s": p["predicted_downtime_s"],
                      "headroom_bps": p["headroom_bps"]}
                     for p in frontier],
        "joint_dominates_naive_at": dominated_budgets,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")

    header = (f"{'policy':<9} {'budget':>8} {'spent':>8} "
              f"{'pred dt':>9} {'headroom':>9} {'damage':>7} "
              f"{'meas dt':>9}  frontier")
    rows = [header]
    for point in points:
        measured = point["measured_downtime_s"]
        rows.append(
            f"{point['policy']:<9} {point['budget_bytes']:>8} "
            f"{point['spent_bytes']:>8} "
            f"{as_msec(point['predicted_downtime_s']):>7.3f}ms "
            f"{as_gbps(point['headroom_bps']):>8.3f}G "
            f"{point['shed_damage']:>7.3f} "
            + (f"{as_msec(measured):>7.3f}ms"
               if measured is not None else f"{'-':>9}")
            + ("  *" if point["pareto"] else ""))
    rows.append("")
    rows.append("joint strictly dominates naive at budget(s): "
                + (", ".join(str(b) for b in dominated_budgets) or "none"))
    report(f"Reliability Pareto sweep (seed {SEED})", "\n".join(rows))

    assert len(BUDGETS) >= 3
    # The acceptance criterion: joint beats naive on BOTH axes at some
    # budget, from a point that survives the frontier cut.
    assert dominated_budgets
    for point in points:
        assert point["recovery_status"] == "completed"
        assert point["protected_shed_packets"] == 0
