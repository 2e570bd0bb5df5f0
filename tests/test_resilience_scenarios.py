"""Resilience end-to-end: the acceptance scenarios, replay, detection.

Pins the PR's two acceptance stories (SmartNIC death mid-spike and
infeasible sustained overload), bit-exact determinism of both, and the
detection property that motivates progress-based health tracking: a
frozen telemetry sample must not mask an NF crash from the watchdog.
"""

import pytest

from repro.chain.nf import DeviceKind
from repro.harness.scenarios import figure1
from repro.resilience import HealthState
from repro.resilience.scenarios import (build_resilient_controller,
                                        run_device_kill, run_overload_shed,
                                        run_scenario)
from repro.errors import ConfigurationError
from repro.sim.faults import FaultInjector
from repro.sim.runner import SimulationRunner
from repro.traffic.packet import FixedSize
from repro.traffic.patterns import ProfiledArrivals, constant
from repro.units import gbps


class TestDeviceKillScenario:
    @pytest.fixture(scope="class")
    def run(self):
        return run_device_kill()

    def test_watchdog_detects_the_death_after_the_kill(self, run):
        kill_at = 0.3 * 0.08
        states = [(t.state, t.at_s) for t in run.controller.health.transitions
                  if t.entity == "device:smartnic"]
        assert [s for s, __ in states] == \
            [HealthState.SUSPECT, HealthState.FAILED]
        assert all(at > kill_at for __, at in states)

    def test_survivors_end_up_on_the_cpu(self, run):
        placement = run.result.final_placement
        for nf in placement.chain:
            assert placement.device_of(nf.name) is DeviceKind.CPU

    def test_recovery_completes_and_records_latency(self, run):
        assert len(run.stats.recoveries) == 1
        recovery = run.stats.recoveries[0]
        assert recovery.device == "smartnic"
        assert recovery.status == "completed"
        assert recovery.attempts >= 1
        assert run.time_to_recover_s is not None
        assert run.time_to_recover_s > 0.0

    def test_no_violations_no_protected_shed_no_abandonment(self, run):
        assert run.violations == []
        assert run.stats.protected_shed_packets == 0
        assert run.stats.abandoned_packets == 0
        assert run.result.delivered > 0


class TestOverloadScenario:
    @pytest.fixture(scope="class")
    def run(self):
        return run_overload_shed()

    def test_only_the_low_class_is_shed(self, run):
        by_name = {cls.name: cls for cls in run.stats.classes}
        assert by_name["low"].shed_packets > 0
        assert by_name["normal"].shed_packets == 0
        assert by_name["high"].shed_packets == 0
        assert run.stats.protected_shed_packets == 0

    def test_shedding_stays_on_the_first_rung(self, run):
        # 2.2 Gbps offered vs the 2.0 Gbps border-move optimum needs
        # only the low class (0.3 share); deeper rungs must not engage.
        assert run.stats.level_changes
        assert max(level for __, level in run.stats.level_changes) == 1
        assert run.stats.degraded_time_s > 0.0
        assert 0.0 < run.stats.shed_fraction <= \
            run.controller.config.degradation.max_shed_fraction

    def test_pam_settles_the_admitted_load(self, run):
        # With low shed, the planner reaches the 2.0 Gbps split:
        # {load_balancer, logger} on CPU, {monitor, firewall} on NIC.
        placement = run.result.final_placement
        assert placement.device_of("load_balancer") is DeviceKind.CPU
        assert placement.device_of("logger") is DeviceKind.CPU
        assert placement.device_of("monitor") is DeviceKind.SMARTNIC
        assert placement.device_of("firewall") is DeviceKind.SMARTNIC

    def test_no_failures_and_no_violations(self, run):
        assert run.stats.recoveries == ()
        assert run.violations == []


class TestDeterminism:
    @staticmethod
    def fingerprint(run):
        return (
            run.result.injected, run.result.delivered, run.result.dropped,
            run.stats,
            tuple(run.controller.health.transitions),
            tuple((r.device, r.status, r.detected_s, r.completed_s,
                   r.attempts, tuple(r.evacuated))
                  for r in run.controller.recoveries),
        )

    def test_device_kill_replays_bit_exact(self):
        first = run_device_kill(duration_s=0.05)
        second = run_device_kill(duration_s=0.05)
        assert self.fingerprint(first) == self.fingerprint(second)

    def test_overload_replays_bit_exact(self):
        first = run_overload_shed(duration_s=0.04)
        second = run_overload_shed(duration_s=0.04)
        assert self.fingerprint(first) == self.fingerprint(second)

    def test_seeds_change_the_run(self):
        assert self.fingerprint(run_device_kill(seed=7, duration_s=0.05)) \
            != self.fingerprint(run_device_kill(seed=8, duration_s=0.05))


class TestRunScenario:
    def test_dispatch_by_name(self):
        run = run_scenario("overload", duration_s=0.02)
        assert run.name == "overload"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario("meteor-strike")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            run_device_kill(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            run_overload_shed(duration_s=-1.0)


class TestTelemetryCannotMaskACrash:
    """An NF crash inside a telemetry dropout must still be detected.

    The monitor's load sample freezes for the whole crash window, so a
    telemetry-driven detector would see a healthy chain throughout.
    The watchdog reads live progress counters instead: the crashed NF
    stalls against its advancing upstream and is declared failed while
    the telemetry is still frozen.
    """

    DURATION_S = 0.04
    DROPOUT_AT_S, DROPOUT_LEN_S = 0.006, 0.030
    CRASH_AT_S, CRASH_LEN_S = 0.010, 0.016

    @pytest.fixture(scope="class")
    def controller(self):
        scenario = figure1()
        server = scenario.build_server()
        controller = build_resilient_controller()
        generator = ProfiledArrivals(constant(gbps(1.0)), FixedSize(512),
                                     duration_s=self.DURATION_S, seed=7,
                                     jitter=False)
        sim = SimulationRunner(server, generator, controller,
                               monitor_period_s=0.002)
        injector = FaultInjector(sim.network, sim.engine, seed=7)
        injector.telemetry_dropout(self.DROPOUT_AT_S, self.DROPOUT_LEN_S)
        injector.crash_nf("monitor", self.CRASH_AT_S, self.CRASH_LEN_S)
        sim.run()
        sim.engine.run()
        return controller

    def monitor_transitions(self, controller):
        return [t for t in controller.health.transitions
                if t.entity == "nf:monitor"]

    def test_crash_detected_while_telemetry_is_frozen(self, controller):
        failed = [t for t in self.monitor_transitions(controller)
                  if t.state is HealthState.FAILED]
        assert failed, "the crashed NF was never declared failed"
        at = failed[0].at_s
        assert self.CRASH_AT_S < at < \
            self.DROPOUT_AT_S + self.DROPOUT_LEN_S

    def test_starved_downstream_nf_is_not_defamed(self, controller):
        # Firewall receives nothing while monitor is down; its
        # reference (monitor's progress) is flat, so it stays healthy.
        assert not any(t.entity == "nf:firewall"
                       for t in controller.health.transitions)

    def test_devices_stay_healthy(self, controller):
        # Other stations keep serving on both devices: an NF crash must
        # not read as a device failure (no spurious evacuation).
        assert not any(t.entity.startswith("device:")
                       for t in controller.health.transitions)
        assert controller.recoveries == []

    def test_nf_recovers_after_restart(self, controller):
        states = [t.state for t in self.monitor_transitions(controller)]
        assert HealthState.RECOVERING in states
        assert controller.health.state_of("nf:monitor") in (
            HealthState.RECOVERING, HealthState.HEALTHY)

    def test_no_shedding_at_feasible_load(self, controller):
        assert controller.shedder.shed_packets == 0
        assert controller.ladder.level_changes == []
