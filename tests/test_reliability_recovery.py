"""StandbyPool acquisition edges and evacuation re-plan-on-abort.

Two reliability guarantees pinned here:

* :meth:`StandbyPool.acquire` totally resolves every replica request —
  an exhausted pool degrades to a migrate/shed decision, never a
  ``KeyError`` — and a campaign planned with a budget too small to
  prewarm anything still completes quarantine-free.
* The recovery loop survives repeated injected faults mid-evacuation:
  aborted plans are re-planned (up to the attempt cap, then abandoned
  with explicit drop accounting), chained device kills land both
  recoveries at a terminal status, and packet/byte conservation holds
  exactly throughout — the only residual ever allowed is packets
  stranded in a dead device's station queues.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import catalog
from repro.chain.chain import ServiceChain
from repro.chain.nf import DeviceKind
from repro.chain.placement import Placement
from repro.exec import run_campaign
from repro.harness.scenarios import figure1
from repro.reliability import ReliabilityCampaign
from repro.resilience.recovery import (ACQUIRE_MIGRATE, ACQUIRE_REPLICA,
                                       ACQUIRE_SHED, StandbyPool)
from repro.resilience.scenarios import _PACKET_BYTES, device_kill_case
from repro.soak.scenario import build_case_scenario

S = DeviceKind.SMARTNIC
C = DeviceKind.CPU

MONITOR_STATE = 262144
FIREWALL_STATE = 65536


class TestAcquire:
    def test_prewarmed_name_acquires_replica(self):
        pool = StandbyPool(figure1().placement, S, MONITOR_STATE)
        assert pool.acquire("monitor") == ACQUIRE_REPLICA

    def test_exhausted_pool_degrades_to_migrate(self):
        # Budget fits only the monitor; the firewall's replica request
        # resolves to a cold migrate, not an error.
        pool = StandbyPool(figure1().placement, S, MONITOR_STATE)
        assert pool.acquire("firewall") == ACQUIRE_MIGRATE

    def test_zero_budget_everything_migrates(self):
        pool = StandbyPool(figure1().placement, S, 0)
        for name in ("logger", "monitor", "firewall"):
            assert pool.acquire(name) == ACQUIRE_MIGRATE

    def test_unknown_name_degrades_to_shed(self):
        # A name the protected device does not host cannot be replicated
        # or migrated off it — the total answer is shed, never KeyError.
        pool = StandbyPool(figure1().placement, S, MONITOR_STATE)
        assert pool.acquire("no-such-nf") == ACQUIRE_SHED

    def test_survivor_incapable_nf_sheds(self):
        nic_only = replace(catalog.get("monitor").renamed("nic_only"),
                           cpu_capable=False)
        chain = ServiceChain([catalog.get("load_balancer"), nic_only])
        placement = Placement(chain,
                              {"load_balancer": C, "nic_only": S},
                              ingress=S, egress=C)
        pool = StandbyPool(placement, S, 10 * MONITOR_STATE)
        assert pool.prewarmed == frozenset()
        assert pool.acquire("nic_only") == ACQUIRE_SHED

    def test_acquisitions_recorded_json_clean(self):
        pool = StandbyPool(figure1().placement, S, MONITOR_STATE)
        pool.acquire("monitor")
        pool.acquire("firewall")
        assert pool.acquisitions == {"monitor": ACQUIRE_REPLICA,
                                     "firewall": ACQUIRE_MIGRATE}


class TestPrewarmedOverride:
    def test_explicit_order_wins_over_greedy(self):
        # Greedy would take the monitor first; the explicit order asks
        # for the firewall and the budget only fits one.
        pool = StandbyPool(figure1().placement, S, MONITOR_STATE,
                           prewarmed=("firewall", "monitor"))
        assert pool.prewarmed == frozenset({"firewall"})
        assert pool.spent_bytes == FIREWALL_STATE

    def test_oversized_preference_skipped_not_fatal(self):
        pool = StandbyPool(figure1().placement, S, FIREWALL_STATE,
                           prewarmed=("monitor", "firewall"))
        assert pool.prewarmed == frozenset({"firewall"})

    def test_unknown_preference_names_ignored(self):
        pool = StandbyPool(figure1().placement, S, MONITOR_STATE,
                           prewarmed=("ghost", "monitor"))
        assert pool.prewarmed == frozenset({"monitor"})

    def test_never_overcommits_budget(self):
        pool = StandbyPool(figure1().placement, S,
                           MONITOR_STATE + FIREWALL_STATE - 1,
                           prewarmed=("monitor", "firewall"))
        assert pool.spent_bytes <= MONITOR_STATE + FIREWALL_STATE - 1
        assert pool.prewarmed == frozenset({"monitor"})


class TestTinyBudgetCampaign:
    def test_exhausted_pool_campaign_completes_quarantine_free(self):
        # Regression: a budget too small to prewarm anything used to be
        # an accounting edge; the joint policy must degrade every NF to
        # a migrate/shed decision and the run must finish violation-free.
        campaign = ReliabilityCampaign(scenario="device-kill",
                                       policies=("joint",), runs=1,
                                       seed=7, duration_s=0.02,
                                       budget_bytes=1)
        outcome = run_campaign(campaign)
        (payload,) = outcome.payloads
        assert payload["violations"] == []
        plan = payload["plan"]
        assert plan["prewarmed"] == []
        assert plan["spent_bytes"] == 0
        assert all(action["action"] in ("migrate", "shed")
                   for action in plan["actions"])


class FailFirstN:
    """Failure hook: fail the first ``n`` attempts touching ``nf_name``.

    Counts across plan runs (unlike ``ScheduledFailure``'s per-plan
    attempt numbering), so three failures exhaust one plan's per-action
    retries and force a full re-plan on the next recovery pulse.
    """

    def __init__(self, nf_name, n, fraction=0.5):
        self.nf_name = nf_name
        self.remaining = n
        self.fraction = fraction
        self.calls = []

    def __call__(self, action, attempt):
        self.calls.append((action.nf_name, attempt))
        if action.nf_name == self.nf_name and self.remaining > 0:
            self.remaining -= 1
            return self.fraction
        return None


def _scenario(duration_s=0.02, seed=7):
    return build_case_scenario(device_kill_case(seed=seed,
                                                duration_s=duration_s))


def _dead_station_residual(scenario):
    """Packets stranded in station queues on dead devices."""
    residual = 0
    for station in scenario.sim.network.stations.values():
        if scenario.injector.is_device_dead(station.device.kind):
            residual += len(station.queue)
    return residual


def _assert_conserved(scenario):
    """Exact packet and byte conservation, dead-queue residual allowed."""
    network = scenario.sim.network
    accounted = (len(network.delivered) + network.dropped
                 + network.filtered + network.shed)
    residual = _dead_station_residual(scenario)
    assert accounted + residual == network.injected
    assert network.in_flight() == residual
    assert (accounted + residual) * _PACKET_BYTES == network.injected_bytes


class TestReplanOnAbort:
    def test_aborted_plan_is_replanned_and_completes(self):
        scenario = _scenario()
        hook = FailFirstN("monitor", 3)
        scenario.hardened.failure_hook = hook
        scenario.run()
        (recovery,) = scenario.resilient.recoveries
        assert recovery.status == "completed"
        assert recovery.attempts == 2
        assert set(recovery.evacuated) == {"monitor", "firewall"}
        _assert_conserved(scenario)

    def test_two_aborts_consume_the_attempt_cap(self):
        scenario = _scenario()
        scenario.hardened.failure_hook = FailFirstN("monitor", 6)
        scenario.run()
        (recovery,) = scenario.resilient.recoveries
        assert recovery.status == "completed"
        assert recovery.attempts == 3
        _assert_conserved(scenario)

    def test_exhausted_attempts_abandon_with_drop_accounting(self):
        scenario = _scenario()
        scenario.hardened.failure_hook = FailFirstN("monitor", 9)
        scenario.run()
        (recovery,) = scenario.resilient.recoveries
        assert recovery.status == "abandoned"
        assert recovery.attempts == 3
        # Abandonment drains the corpse's queues into explicit drops —
        # conservation still holds exactly.
        assert scenario.resilient.abandoned_packets > 0
        _assert_conserved(scenario)

    def test_chained_kill_mid_evacuation_both_terminal(self):
        # The CPU dies while the SmartNIC evacuation is still retrying
        # its injected failures — both recoveries must reach a terminal
        # status and the books must still balance.
        scenario = _scenario()
        scenario.hardened.failure_hook = FailFirstN("monitor", 3)
        scenario.injector.kill_device(C, at_s=0.014)
        scenario.run()
        recoveries = scenario.resilient.recoveries
        assert len(recoveries) == 2
        assert all(r.status is not None for r in recoveries)
        nic = next(r for r in recoveries if r.device is S)
        assert nic.attempts == 2
        _assert_conserved(scenario)

    @given(seed=st.integers(min_value=0, max_value=40),
           failures=st.integers(min_value=0, max_value=9))
    @settings(max_examples=12, deadline=None)
    def test_property_bytes_conserved_under_injected_faults(self, seed,
                                                            failures):
        scenario = _scenario(seed=seed)
        scenario.hardened.failure_hook = \
            FailFirstN("monitor", failures)
        scenario.run()
        assert all(r.status is not None
                   for r in scenario.resilient.recoveries)
        _assert_conserved(scenario)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
