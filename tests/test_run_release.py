"""Run release: a finished run lets go of its packets and pending events.

A run's object graph is cyclic (engine action table -> station and
network callbacks -> engine), so without an explicit release its
packets wait for a full cycle collection.  These tests hold the cycle
collector off and count live :class:`Packet` objects around each helper
that owns a scenario's whole life: reference counting alone must free
every packet the helper made.
"""

import gc

import pytest

from repro.chaos import ChaosConfig, ChaosRunner
from repro.chaos.runner import ChaosRunResult
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.harness.experiment import (ExperimentConfig, ExperimentScenario,
                                      run_experiment)
from repro.harness.scenarios import figure1
from repro.resilience.campaign import outcome_payload, run_outcome
from repro.resilience.scenarios import device_kill_case, overload_case
from repro.sim.engine import Engine
from repro.sim.runner import SimulationRunner, simulate
from repro.soak import default_space
from repro.soak.fuzzer import generate_case
from repro.soak.scenario import build_case_scenario, run_case
from repro.traffic.generators import ConstantBitRate
from repro.traffic.packet import FixedSize, Packet
from repro.units import gbps

_DURATION_S = 0.004


def _live_packets() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Packet)


def _cbr() -> ConstantBitRate:
    return ConstantBitRate(rate_bps=gbps(1.4), size_dist=FixedSize(256),
                           duration_s=_DURATION_S, seed=1)


def _runner() -> SimulationRunner:
    return SimulationRunner(figure1().build_server(), _cbr())


#: The five helpers that own a scenario from build to result.
HELPERS = {
    "run_experiment": lambda: run_experiment(ExperimentConfig(
        scenario=figure1(), offered_bps=gbps(1.4),
        duration_s=_DURATION_S)),
    "simulate": lambda: simulate(figure1().build_server(), _cbr()),
    "run_case": lambda: run_case(generate_case(default_space(0.01), 3)),
    "run_one": lambda: ChaosRunner(
        runs=1, seed=7,
        config=ChaosConfig(duration_s=0.01)).run_one(7),
    "resilience_run": lambda: run_outcome(
        device_kill_case(seed=7, duration_s=0.01)),
}


def _packets_left_by(helper) -> int:
    """Live packets ``helper`` leaves behind with the collector off."""
    gc.collect()
    gc.disable()
    try:
        before = _live_packets()
        helper()
        return _live_packets() - before
    finally:
        gc.enable()


class TestHelpersFreeTheirPackets:
    @pytest.mark.parametrize("name", sorted(HELPERS))
    def test_no_packet_outlives_the_helper(self, name):
        assert _packets_left_by(HELPERS[name]) == 0

    @pytest.mark.parametrize("name", sorted(HELPERS))
    def test_a_run_that_raises_is_still_released(self, name, monkeypatch):
        released = []
        release = SimulationRunner.release

        def spy(runner):
            released.append(runner)
            release(runner)

        def tick(runner):
            raise RuntimeError("tick failed")

        monkeypatch.setattr(SimulationRunner, "release", spy)
        monkeypatch.setattr(SimulationRunner, "_tick", tick)

        def call():
            try:
                outcome = HELPERS[name]()
            except RuntimeError:
                return
            # The chaos and soak helpers turn a crash into a payload.
            violations = (outcome.violations
                          if isinstance(outcome, ChaosRunResult)
                          else outcome["violations"])
            assert "tick failed" in str(violations)

        assert _packets_left_by(call) == 0
        assert len(released) == 1
        assert released[0].released
        assert released[0].engine.pending() == 0


class TestReleaseContract:
    def test_release_mid_run_empties_queue_and_holders(self):
        gc.collect()
        before = _live_packets()
        runner = _runner()
        runner.prepare()
        runner.engine.run(until_s=_DURATION_S / 2)
        assert runner.engine.pending() > 0
        assert runner.network.delivered
        runner.release()
        assert runner.engine.pending() == 0
        network = runner.network
        assert not network.delivered
        # The runner is still referenced, so a collection frees nothing
        # it holds: no packet is reachable from the released run.
        gc.collect()
        assert _live_packets() == before
        for station in network.stations.values():
            assert len(station.queue) == 0
            assert station.buffered == 0

    def test_second_release_is_harmless(self):
        runner = _runner()
        result = runner.run()
        runner.release()
        runner.release()
        assert runner.released
        assert runner.engine.pending() == 0
        assert result.delivered > 0

    def test_collect_after_release_raises(self):
        runner = _runner()
        runner.run()
        runner.collect()
        runner.release()
        with pytest.raises(SimulationError, match="after release"):
            runner.collect()
        with pytest.raises(SimulationError, match="after release"):
            runner.run()

    def test_experiment_scenario_collect_after_release_raises(self):
        scenario = ExperimentScenario(ExperimentConfig(
            scenario=figure1(), offered_bps=gbps(1.4),
            duration_s=_DURATION_S))
        scenario.prepare()
        scenario.run()
        scenario.release()
        scenario.release()
        with pytest.raises(SimulationError):
            scenario.collect()

    def test_soak_scenario_collect_after_release_raises(self):
        scenario = build_case_scenario(generate_case(default_space(0.01), 3))
        scenario.prepare()
        scenario.run()
        scenario.release()
        scenario.release()
        assert scenario.sim.engine.pending() == 0
        with pytest.raises(ConfigurationError, match="after release"):
            scenario.collect()

    def test_chaos_collect_after_release_raises(self):
        runner = ChaosRunner(runs=1, seed=7,
                             config=ChaosConfig(duration_s=0.01))
        schedule = runner._schedule(7)
        scenario = runner.build_scenario(7, schedule)
        scenario.prepare()
        scenario.run()
        scenario.release()
        with pytest.raises(ConfigurationError, match="after release"):
            ChaosRunResult.from_scenario(scenario, schedule)

    def test_resilience_scenario_collect_after_release_raises(self):
        scenario = build_case_scenario(overload_case(duration_s=0.004))
        scenario.prepare()
        scenario.run()
        outcome_payload(scenario)
        scenario.release()
        scenario.release()
        with pytest.raises(ConfigurationError, match="after release"):
            outcome_payload(scenario)


class TestEngineClearPending:
    def test_drops_heap_entries_and_streams(self):
        engine = Engine()
        fired = []
        drawn = []

        def items():
            for index in range(1, 4):
                drawn.append(index)
                yield index * 0.001, index

        action_id = engine.register_action(fired.append)
        engine.call_at_id_many(action_id, items())
        engine.after(0.0015, lambda: fired.append("closure"))
        # One entry for the stream, one for the closure.
        assert engine.pending() == 2
        engine.clear_pending()
        assert engine.pending() == 0
        engine.run()
        assert fired == []
        assert drawn == [1]
        assert engine.events_processed == 0

    def test_refused_while_running(self):
        engine = Engine()
        errors = []

        def clear():
            try:
                engine.clear_pending()
            except SchedulingError as exc:
                errors.append(exc)

        engine.at(0.001, clear)
        engine.at(0.002, lambda: None)
        engine.run()
        assert len(errors) == 1
        assert engine.events_processed == 2
