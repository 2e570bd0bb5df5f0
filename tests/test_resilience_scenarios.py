"""Resilience end-to-end: the acceptance scenarios, replay, detection.

Pins the two acceptance stories (SmartNIC death mid-spike and
infeasible sustained overload) as soak cases run through the one
scenario wiring, bit-exact determinism and JSON replay of both, their
CLI reports, and the detection property that motivates progress-based
health tracking: a frozen telemetry sample must not mask an NF crash
from the watchdog.
"""

import json
import os

import pytest

from repro.chain.nf import DeviceKind
from repro.chaos.schedule import ChaosFault
from repro.checkpoint.journal import canonical_json
from repro.cli import main
from repro.errors import ConfigurationError
from repro.resilience import HealthState
from repro.resilience.campaign import outcome_payload, run_outcome
from repro.resilience.scenarios import (INFEASIBLE_LOAD_BPS,
                                        device_kill_case, overload_case,
                                        scenario_case)
from repro.soak.fuzzer import SoakCase
from repro.soak.scenario import build_case_scenario
from repro.soak.shrinker import (ShrinkResult, replay_reproducer,
                                 reproducer_document)
from repro.units import gbps

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
#: The device-kill case as a soak reproducer (no violations recorded).
DEVKILL_REPRODUCER = os.path.join(GOLDEN, "resilience_devkill_seed7_case.json")


def _run(case):
    """Wire, run and drain ``case``; the released scenario and outcome."""
    scenario = build_case_scenario(case)
    scenario.prepare()
    scenario.run()
    outcome = outcome_payload(scenario)
    scenario.release()
    return scenario, outcome


class TestDeviceKillScenario:
    @pytest.fixture(scope="class")
    def run(self):
        return _run(device_kill_case())

    def test_watchdog_detects_the_death_after_the_kill(self, run):
        scenario, __ = run
        kill_at = 0.3 * 0.08
        states = [(t.state, t.at_s)
                  for t in scenario.resilient.health.transitions
                  if t.entity == "device:smartnic"]
        assert [s for s, __ in states] == \
            [HealthState.SUSPECT, HealthState.FAILED]
        assert all(at > kill_at for __, at in states)

    def test_survivors_end_up_on_the_cpu(self, run):
        placement = run[0].result.final_placement
        for nf in placement.chain:
            assert placement.device_of(nf.name) is DeviceKind.CPU

    def test_recovery_completes_and_records_latency(self, run):
        outcome = run[1]
        assert len(outcome["recoveries"]) == 1
        recovery = outcome["recoveries"][0]
        assert recovery["device"] == "smartnic"
        assert recovery["status"] == "completed"
        assert recovery["attempts"] >= 1
        assert outcome["downtime_s"] is not None
        assert outcome["downtime_s"] > 0.0

    def test_no_violations_no_protected_shed_no_abandonment(self, run):
        outcome = run[1]
        assert outcome["violations"] == []
        assert outcome["protected_shed_packets"] == 0
        assert outcome["abandoned_packets"] == 0
        assert outcome["delivered"] > 0


class TestOverloadScenario:
    @pytest.fixture(scope="class")
    def run(self):
        return _run(overload_case())

    def test_only_the_low_class_is_shed(self, run):
        outcome = run[1]
        by_name = {cls["name"]: cls for cls in outcome["classes"]}
        assert by_name["low"]["shed_packets"] > 0
        assert by_name["normal"]["shed_packets"] == 0
        assert by_name["high"]["shed_packets"] == 0
        assert outcome["protected_shed_packets"] == 0

    def test_shedding_stays_on_the_first_rung(self, run):
        # 2.2 Gbps offered vs the 2.0 Gbps border-move optimum needs
        # only the low class (0.3 share); deeper rungs must not engage.
        scenario, outcome = run
        assert outcome["level_changes"]
        assert max(level for __, level in outcome["level_changes"]) == 1
        assert outcome["degraded_time_s"] > 0.0
        assert 0.0 < outcome["shed_fraction"] <= \
            scenario.resilient.config.degradation.max_shed_fraction

    def test_pam_settles_the_admitted_load(self, run):
        # With low shed, the planner reaches the 2.0 Gbps split:
        # {load_balancer, logger} on CPU, {monitor, firewall} on NIC.
        placement = run[0].result.final_placement
        assert placement.device_of("load_balancer") is DeviceKind.CPU
        assert placement.device_of("logger") is DeviceKind.CPU
        assert placement.device_of("monitor") is DeviceKind.SMARTNIC
        assert placement.device_of("firewall") is DeviceKind.SMARTNIC

    def test_no_failures_and_no_violations(self, run):
        outcome = run[1]
        assert outcome["recoveries"] == []
        assert outcome["violations"] == []

    def test_constant_infeasible_load(self):
        case = overload_case()
        assert case.base_bps == case.peak_bps == INFEASIBLE_LOAD_BPS
        assert case.faults == ()


class TestDeterminism:
    @staticmethod
    def fingerprint(run):
        scenario, outcome = run
        controller = scenario.resilient
        return (
            canonical_json(outcome),
            tuple(controller.health.transitions),
            tuple((r.device, r.status, r.detected_s, r.completed_s,
                   r.attempts, tuple(r.evacuated))
                  for r in controller.recoveries),
        )

    def test_device_kill_replays_bit_exact(self):
        first = _run(device_kill_case(duration_s=0.05))
        second = _run(device_kill_case(duration_s=0.05))
        assert self.fingerprint(first) == self.fingerprint(second)

    def test_overload_replays_bit_exact(self):
        first = _run(overload_case(duration_s=0.04))
        second = _run(overload_case(duration_s=0.04))
        assert self.fingerprint(first) == self.fingerprint(second)

    def test_seeds_change_the_run(self):
        assert self.fingerprint(_run(device_kill_case(seed=7,
                                                      duration_s=0.05))) \
            != self.fingerprint(_run(device_kill_case(seed=8,
                                                      duration_s=0.05)))


class TestRunScenario:
    def test_dispatch_by_name(self):
        assert scenario_case("overload", duration_s=0.02) == \
            overload_case(duration_s=0.02)
        assert scenario_case("device-kill", seed=9) == \
            device_kill_case(seed=9)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_case("meteor-strike")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            device_kill_case(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            overload_case(duration_s=-1.0)

    def test_device_kill_is_one_smartnic_kill_mid_spike(self):
        case = device_kill_case(duration_s=0.05)
        assert (case.base_bps, case.peak_bps) == (gbps(1.0), gbps(1.8))
        assert (case.spike_start_frac, case.spike_frac) == (0.2, 0.4)
        assert case.resilient and case.migration_failure_rate == 0.0
        assert case.faults == (ChaosFault(
            kind="device-kill", at_s=0.3 * 0.05, duration_s=0.0,
            device=DeviceKind.SMARTNIC),)


class TestCaseReplay:
    """The canned cases are data: they round-trip and replay."""

    @pytest.mark.parametrize("build", [device_kill_case, overload_case])
    def test_round_trip_replays_the_same_outcome(self, build):
        case = build(duration_s=0.02)
        wire = json.loads(json.dumps(case.to_dict()))
        replayed = SoakCase.from_dict(wire)
        assert replayed == case
        assert canonical_json(run_outcome(replayed)) == \
            canonical_json(run_outcome(case))

    def test_committed_reproducer_is_the_device_kill_case(self):
        case = device_kill_case()
        document = reproducer_document(ShrinkResult(
            original=case, case=case, violations=[], signature=(),
            executions=0))
        with open(DEVKILL_REPRODUCER, encoding="utf-8") as handle:
            assert json.loads(handle.read()) == \
                json.loads(canonical_json(document))

    def test_committed_reproducer_replays_clean(self):
        outcome = replay_reproducer(DEVKILL_REPRODUCER)
        assert outcome.case == device_kill_case()
        assert outcome.actual == []
        assert outcome.match


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
        case = SoakCase(
            seed=7, duration_s=self.DURATION_S, packet_bytes=512,
            base_bps=gbps(1.0), peak_bps=gbps(1.0), resilient=True,
            migration_failure_rate=0.0,
            faults=(ChaosFault(kind="telemetry-dropout",
                               at_s=self.DROPOUT_AT_S,
                               duration_s=self.DROPOUT_LEN_S),
                    ChaosFault(kind="crash", at_s=self.CRASH_AT_S,
                               duration_s=self.CRASH_LEN_S,
                               nf_name="monitor")))
        return _run(case)[0].resilient

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


class TestGolden:
    """``repro resilience --scenario NAME`` at its default duration."""

    @pytest.mark.parametrize("name,golden", [
        ("device-kill", "resilience_devkill_seed7.txt"),
        ("overload", "resilience_overload_seed7.txt")])
    def test_report_matches_golden(self, capsys, name, golden):
        assert main(["resilience", "--scenario", name]) == 0
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as handle:
            assert capsys.readouterr().out == handle.read()
