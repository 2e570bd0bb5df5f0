"""Robustness R1: chaos campaign over the fault-tolerant pipeline.

Drives a seeded campaign of randomized scenarios — traffic spikes, NF
crashes, device brownouts, PCIe flaps, telemetry dropouts, and
probabilistic mid-transfer migration failures — through the hardened
controller and reports, per scenario, what broke, what was retried, and
that every end-state invariant held.  The aggregate rollback/retry
accounting is the experiment: loss-free migration survives a hostile
run, not just the happy path.
"""

from conftest import campaign_workers, report
from repro.chaos import ChaosConfig, ChaosReport, ChaosRunner
from repro.chaos.runner import ChaosCampaign
from repro.exec import make_executor, run_campaign

RUNS = 10
SEED = 7


def test_chaos_campaign(benchmark):
    results = []

    def run():
        results.clear()
        campaign = ChaosCampaign(ChaosRunner(
            runs=RUNS, seed=SEED, config=ChaosConfig(duration_s=0.02)))
        outcome = run_campaign(campaign,
                               executor=make_executor(campaign_workers()))
        results.append(ChaosReport.from_payloads(outcome.payloads))

    benchmark.pedantic(run, rounds=1, iterations=1)
    campaign = results[0]

    retried = sum(r.attempts - r.migrations for r in campaign.results)
    body = campaign.render() + (
        f"\n\nfaults injected: "
        f"{sum(len(r.schedule.faults) for r in campaign.results)}"
        f"\nmigrations completed: "
        f"{sum(r.migrations for r in campaign.results)}"
        f"\nattempts rolled back or aborted: {retried}"
        f"\nplans aborted: "
        f"{sum(r.plans_aborted for r in campaign.results)}"
        f"\npackets lost to faults: "
        f"{sum(r.fault_losses for r in campaign.results)}")
    report(f"Chaos campaign ({RUNS} scenarios, seed {SEED})", body)

    assert campaign.ok, campaign.render()
    assert campaign.runs == RUNS
