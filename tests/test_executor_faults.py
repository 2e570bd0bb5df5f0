"""Executor fault tolerance: timeout, rollback, retry/backoff, abort."""

import random

import pytest

from repro.core.pam import select as pam_select
from repro.errors import ConfigurationError
from repro.migration.executor import (OUTCOME_ABORTED, OUTCOME_ROLLED_BACK,
                                      OUTCOME_SUCCEEDED, MigrationExecutor,
                                      ProbabilisticFailure, RetryPolicy,
                                      ScheduledFailure)
from repro.sim.engine import Engine
from repro.sim.network import ChainNetwork
from repro.traffic.packet import Packet
from repro.units import gbps, usec


class Harness:
    """A live figure-1 simulation with a configurable executor."""

    def __init__(self, fig1_scenario, **executor_kwargs):
        self.scenario = fig1_scenario
        self.server = fig1_scenario.build_server()
        self.server.refresh_demand(gbps(1.8))
        self.engine = Engine()
        self.network = ChainNetwork(self.server, self.engine)
        self.executor = MigrationExecutor(self.server, self.network,
                                          self.engine, **executor_kwargs)
        self.outcomes = []

    def inject_cbr(self, count, gap_s=2e-6, size=256):
        for i in range(count):
            self.network.inject(Packet(seq=i, size_bytes=size,
                                       arrival_s=i * gap_s))

    def apply_at(self, at_s=1e-4, offered=gbps(1.8)):
        plan = pam_select(self.scenario.placement, offered)
        self.engine.at(
            at_s,
            lambda: self.executor.apply(plan, offered,
                                        on_outcome=self.outcomes.append),
            control=True)
        return plan


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_frac=1.0)

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(max_attempts=8, backoff_base_s=1e-4,
                             backoff_multiplier=2.0, backoff_cap_s=3e-4,
                             jitter_frac=0.0)
        rng = random.Random(0)
        delays = [policy.delay_s(n, rng) for n in (1, 2, 3, 4)]
        assert delays == pytest.approx([1e-4, 2e-4, 3e-4, 3e-4])

    def test_jitter_is_deterministic_under_fixed_seed(self):
        policy = RetryPolicy(jitter_frac=0.2)
        first = [policy.delay_s(n, random.Random(42)) for n in (1, 2, 3)]
        second = [policy.delay_s(n, random.Random(42)) for n in (1, 2, 3)]
        assert first == second

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base_s=1e-4, jitter_frac=0.1,
                             backoff_cap_s=1.0)
        rng = random.Random(1)
        for __ in range(50):
            delay = policy.delay_s(1, rng)
            assert 0.9e-4 <= delay <= 1.1e-4


class TestFailureHooks:
    def test_probabilistic_is_seeded(self):
        action = object()
        hook_a = ProbabilisticFailure(0.5, seed=3)
        hook_b = ProbabilisticFailure(0.5, seed=3)
        draws_a = [hook_a(action, 1) for __ in range(20)]
        draws_b = [hook_b(action, 1) for __ in range(20)]
        assert draws_a == draws_b
        assert any(d is not None for d in draws_a)
        assert any(d is None for d in draws_a)

    def test_probability_validation(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticFailure(1.5)
        with pytest.raises(ConfigurationError):
            ProbabilisticFailure(0.5, fraction=2.0)


class TestMidTransferFailure:
    def test_rollback_then_retry_succeeds_loss_free(self, fig1_scenario):
        # The headline scenario: attempt 1 dies mid-transfer, rolls the
        # NF back onto the NIC, backs off, retries, and lands — without
        # dropping a single buffered packet.
        hook = ScheduledFailure({("logger", 1): 0.5})
        h = Harness(fig1_scenario, failure_hook=hook,
                    retry=RetryPolicy(max_attempts=3,
                                      backoff_base_s=usec(100.0)))
        h.inject_cbr(500)
        h.apply_at()
        h.engine.run()
        assert hook.triggered == [("logger", 1)]
        outcome = h.outcomes[0]
        assert outcome.succeeded
        assert outcome.attempts == 2
        assert [r.outcome for r in outcome.records] == \
            [OUTCOME_ROLLED_BACK, OUTCOME_SUCCEEDED]
        assert h.server.placement.device_of("logger").value == "cpu"
        # Loss-free: everything injected is eventually delivered.
        assert len(h.network.delivered) == 500
        assert h.network.dropped == 0

    def test_rollback_restores_binding_and_demand(self, fig1_scenario):
        # Every attempt fails: the NF must end where it started, with
        # device demand identical to the pre-plan refresh.
        hook = ScheduledFailure({("logger", n): 0.5 for n in (1, 2)})
        h = Harness(fig1_scenario, failure_hook=hook,
                    retry=RetryPolicy(max_attempts=2,
                                      backoff_base_s=usec(100.0)))
        nic_before = h.server.nic.demand
        cpu_before = h.server.cpu.demand
        h.inject_cbr(400)
        h.apply_at()
        h.engine.run()
        outcome = h.outcomes[0]
        assert outcome.status == OUTCOME_ABORTED
        assert outcome.failed_nf == "logger"
        assert outcome.reason == "injected-failure"
        assert h.server.placement.device_of("logger").value == "smartnic"
        assert h.network.stations["logger"].device.kind.value == "smartnic"
        assert h.server.nic.demand == pytest.approx(nic_before)
        assert h.server.cpu.demand == pytest.approx(cpu_before)
        # Rollback is loss-free too: the pause buffer replays in place.
        assert len(h.network.delivered) == 400
        assert h.network.dropped == 0

    def test_busy_false_after_every_terminal_outcome(self, fig1_scenario):
        for failures in ({}, {("logger", 1): 0.5},
                         {("logger", 1): 0.5, ("logger", 2): 0.5}):
            h = Harness(fig1_scenario,
                        failure_hook=ScheduledFailure(failures),
                        retry=RetryPolicy(max_attempts=2,
                                          backoff_base_s=usec(100.0)))
            h.inject_cbr(200)
            h.apply_at()
            h.engine.run()
            assert not h.executor.busy
            assert len(h.outcomes) == 1
            assert not h.network.stations["logger"].paused

    def test_retry_backoff_schedule_deterministic_under_seed(self,
                                                             fig1_scenario):
        starts = []
        for __ in range(2):
            hook = ScheduledFailure({("logger", 1): 0.5,
                                     ("logger", 2): 0.5})
            h = Harness(fig1_scenario, failure_hook=hook,
                        retry=RetryPolicy(max_attempts=3,
                                          backoff_base_s=usec(100.0),
                                          jitter_frac=0.2),
                        retry_seed=77)
            h.inject_cbr(300)
            h.apply_at()
            h.engine.run()
            starts.append([r.started_s for r in h.executor.records])
        assert starts[0] == starts[1]
        assert len(starts[0]) == 3
        # Exponential backoff: the second gap (retry 2) exceeds the
        # first even under +-20% jitter.
        r = h.executor.records
        gap1 = r[1].started_s - r[0].completed_s
        gap2 = r[2].started_s - r[1].completed_s
        assert gap2 > gap1

    def test_failure_mid_plan_leaves_remaining_actions_unexecuted(
            self, fig1_scenario):
        # Build a two-action plan by hand; kill the first action on
        # every attempt.  The second action must never run and the
        # placement must equal the starting one.
        from repro.core.plan import MigrationAction, MigrationPlan
        from repro.chain.nf import DeviceKind
        placement = fig1_scenario.placement
        first = MigrationAction(
            nf_name="logger", source=DeviceKind.SMARTNIC,
            target=DeviceKind.CPU,
            crossing_delta=placement.crossing_delta("logger",
                                                    DeviceKind.CPU))
        mid = placement.moved("logger", DeviceKind.CPU)
        second = MigrationAction(
            nf_name="monitor", source=DeviceKind.SMARTNIC,
            target=DeviceKind.CPU,
            crossing_delta=mid.crossing_delta("monitor", DeviceKind.CPU))
        plan = MigrationPlan(
            actions=(first, second), befores=(placement,),
            afters=(mid.moved("monitor", DeviceKind.CPU),),
            alleviates=True, policy="test")
        hook = ScheduledFailure({("logger", n): 0.5 for n in (1, 2, 3)})
        h = Harness(fig1_scenario, failure_hook=hook,
                    retry=RetryPolicy(max_attempts=3,
                                      backoff_base_s=usec(100.0)))
        h.inject_cbr(300)
        h.engine.at(1e-4,
                    lambda: h.executor.apply(plan, gbps(1.8),
                                             on_outcome=h.outcomes.append),
                    control=True)
        h.engine.run()
        outcome = h.outcomes[0]
        assert outcome.status == OUTCOME_ABORTED
        assert outcome.actions_completed == 0
        assert outcome.plan_size == 2
        assert {r.nf_name for r in outcome.records} == {"logger"}
        assert h.server.placement == placement
        h.network.check_conservation()
        assert len(h.network.delivered) == 300


class TestTimeouts:
    def test_action_timeout_rolls_back(self, fig1_scenario):
        # A timeout far below the migration cost (~115 us for logger)
        # must abort every attempt.
        h = Harness(fig1_scenario, action_timeout_s=usec(40.0),
                    retry=RetryPolicy(max_attempts=2,
                                      backoff_base_s=usec(100.0)))
        h.inject_cbr(300)
        h.apply_at()
        h.engine.run()
        outcome = h.outcomes[0]
        assert outcome.status == OUTCOME_ABORTED
        assert outcome.reason == "timeout"
        assert h.server.placement.device_of("logger").value == "smartnic"
        assert len(h.network.delivered) == 300

    def test_generous_timeout_does_not_fire(self, fig1_scenario):
        h = Harness(fig1_scenario, action_timeout_s=0.05)
        h.inject_cbr(300)
        h.apply_at()
        h.engine.run()
        assert h.outcomes[0].succeeded
        assert h.outcomes[0].attempts == 1

    def test_drain_timeout_bounded(self, fig1_scenario, monkeypatch):
        # Make the logger's station *look* perpetually busy to the
        # executor: the bounded drain wait must give up and record a
        # drain-timeout instead of polling forever.
        from repro.sim.nfinstance import NFStation
        h = Harness(fig1_scenario, drain_timeout_s=2e-4,
                    retry=RetryPolicy(max_attempts=1))
        h.inject_cbr(100)
        h.apply_at()
        original = NFStation.busy
        monkeypatch.setattr(
            NFStation, "busy",
            property(lambda self: True if self.profile.name == "logger"
                     else original.fget(self)))
        h.engine.run()
        outcome = h.outcomes[0]
        assert outcome.status == OUTCOME_ABORTED
        assert outcome.reason == "drain-timeout"
        assert not h.executor.busy
        # The rollback (without rebind — the station never drained)
        # still resumed the data path loss-free.
        assert len(h.network.delivered) == 100

    def test_invalid_timeouts_rejected(self, fig1_scenario):
        with pytest.raises(ConfigurationError):
            Harness(fig1_scenario, action_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            Harness(fig1_scenario, drain_timeout_s=-1.0)
