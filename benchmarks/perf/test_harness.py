"""Self-tests for the benchmark harness: span accounting, the action
wrapper, the percentile rule and the commit-comparison rule.

Run with ``python -m pytest benchmarks/perf`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import verdict  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestSelfTime:
    def test_nested_spans_subtract_child_time(self, clock):
        tracer = spans.Tracer(clock=clock)

        def inner():
            clock.advance(2.0)

        traced_inner = tracer.wrap("b:inner", inner)

        def outer():
            clock.advance(1.0)
            traced_inner()
            clock.advance(0.5)
            traced_inner()

        tracer.wrap("a:outer", outer)()
        assert tracer.stats["a:outer"] == [1, 5.5, 1.5]
        assert tracer.stats["b:inner"] == [2, 4.0, 4.0]
        assert tracer.attributed_s() == pytest.approx(tracer.root_s())
        assert tracer.root_s() == pytest.approx(5.5)

    def test_reentry_counts_once_and_keeps_totals(self, clock):
        tracer = spans.Tracer(clock=clock)
        at = tracer.wrap("sim.events:schedule", lambda: clock.advance(1.0))

        def after():
            clock.advance(0.25)
            at()

        tracer.wrap("sim.events:schedule", after)()
        count, total_s, self_s = tracer.stats["sim.events:schedule"]
        assert (count, total_s, self_s) == (1, 1.25, 1.25)

    def test_kept_records_carry_parent_and_request(self, clock):
        tracer = spans.Tracer(clock=clock)
        tracer.request = 3
        prepare = tracer.wrap("sim.runner:prepare",
                              lambda: clock.advance(1.0))
        tracer.wrap("exec:run_request", prepare)()
        assert tracer.records == [
            ("sim.runner:prepare", 0.0, 1.0, "exec:run_request", 3),
            ("exec:run_request", 0.0, 1.0, spans.ROOT, 3)]


class TestGeneratorSpans:
    def test_consumption_is_timed_not_creation(self, clock):
        tracer = spans.Tracer(clock=clock)

        def packets():
            for seq in range(3):
                clock.advance(0.5)
                yield seq

        produced = tracer.iterate("traffic:packets", packets())
        assert "traffic:packets" in tracer.stats
        assert tracer.stats["traffic:packets"][0] == 0

        def prepare():
            clock.advance(1.0)
            return list(produced)

        assert tracer.wrap("sim.runner:prepare", prepare)() == [0, 1, 2]
        # Three items plus the call that raised StopIteration.
        assert tracer.stats["traffic:packets"] == [4, 1.5, 1.5]
        assert tracer.counters["traffic:packets.items"] == 3
        assert tracer.stats["sim.runner:prepare"][2] == pytest.approx(1.0)

    def test_delegating_producer_is_wrapped_once(self, clock):
        tracer = spans.Tracer(clock=clock)

        class Base:
            def packets(self):
                yield from range(2)

        base = spans._producer(tracer, "traffic:packets",
                               Base.__dict__["packets"])

        def delegating(self):
            return base(self)

        wrapped = spans._producer(tracer, "traffic:packets", delegating)
        assert list(wrapped(Base())) == [0, 1]
        assert tracer.counters["traffic:packets.items"] == 2


class TestActionWrapper:
    def _wire(self):
        from repro.harness.scenarios import figure1
        from repro.sim.engine import Engine
        from repro.sim.network import ChainNetwork

        engine = Engine()
        network = ChainNetwork(figure1().build_server(), engine)
        return engine, network

    @staticmethod
    def _interning(engine, network):
        # Re-registering a wired action returns its id; a new callable
        # then gets the next id, which is the action-table length.
        return (engine.register_action(network._depart),
                engine.register_action(lambda: None))

    def test_interning_and_table_length_unchanged(self):
        plain = self._interning(*self._wire())
        installed = spans.install(spans.Tracer())
        try:
            traced = self._interning(*self._wire())
        finally:
            installed.restore()
        assert traced == plain

    def test_dispatch_is_attributed_by_module(self):
        from repro.traffic.packet import Packet

        tracer = spans.Tracer()
        installed = spans.install(tracer)
        try:
            engine, network = self._wire()
            engine.call_at(0.0, network._depart,
                           Packet(seq=0, size_bytes=64, arrival_s=0.0))
            engine.run()
        finally:
            installed.restore()
        assert tracer.stats["sim.network:action"][0] == 1
        assert tracer.counters["sim.engine.events"] == 1

    def test_restore_puts_every_original_back(self):
        from repro.sim.engine import Engine
        from repro.sim.events import EventQueue

        before = (Engine.__dict__["run"], EventQueue.__dict__["push"])
        spans.install(spans.Tracer()).restore()
        assert (Engine.__dict__["run"], EventQueue.__dict__["push"]) == before


class TestPercentileRule:
    @pytest.mark.parametrize("count,expected", [
        (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
        (1000, 99.0), (10000, 99.9)])
    def test_highest_percentile_with_ten_beyond(self, count, expected):
        assert verdict.tail_percentile(count) == expected

    def test_percentile_interpolates(self):
        assert verdict.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
        assert verdict.percentile(list(range(101)), 90.0) == 90.0


class TestComparisonRule:
    PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]

    def test_difference_within_bound_passes(self):
        change = [value * 1.04 for value in self.PARENT]
        assert verdict.verdict(self.PARENT, change, 0.10, "lower") == \
            "within bound"

    def test_difference_beyond_bound_regresses(self):
        change = [value * 1.2 for value in self.PARENT]
        assert verdict.verdict(self.PARENT, change, 0.10, "lower") == \
            "regression"

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.0, 12.5, 8.5]
        change = [value * 1.05 for value in parent]
        assert verdict.verdict(parent, change, 0.10, "lower") == \
            "unresolved"

    def test_gain_needs_nine_in_ten_wins_beyond_the_iqr(self):
        faster = [value * 0.9 for value in self.PARENT]
        assert verdict.verdict(self.PARENT, faster, 0.10, "lower") == "gain"
        mixed = faster[:8] + [value * 1.01 for value in self.PARENT[8:]]
        assert verdict.verdict(self.PARENT, mixed, 0.10, "lower") != "gain"


def test_benchmark_json_matches_the_harness():
    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
