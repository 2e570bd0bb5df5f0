"""Event queue and discrete-event engine."""

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Engine
from repro.sim.events import (PRIORITY_CONTROL, PRIORITY_DATA, EventQueue)


class TestEventQueue:
    def test_pops_in_time_order(self):
        engine = Engine()
        queue = engine._queue
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_priority_then_insertion(self):
        engine = Engine()
        queue = engine._queue
        order = []
        queue.push(1.0, lambda: order.append("data1"), PRIORITY_DATA)
        queue.push(1.0, lambda: order.append("ctrl"), PRIORITY_CONTROL)
        queue.push(1.0, lambda: order.append("data2"), PRIORITY_DATA)
        engine.run()
        assert order == ["ctrl", "data1", "data2"]

    def test_negative_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().push(-1.0, lambda: None)


class TestEngine:
    def test_clock_advances_with_events(self):
        engine = Engine()
        times = []
        engine.at(0.5, lambda: times.append(engine.now_s))
        engine.at(1.5, lambda: times.append(engine.now_s))
        engine.run()
        assert times == [0.5, 1.5]
        assert engine.now_s == 1.5

    def test_after_is_relative(self):
        engine = Engine()
        seen = []
        engine.at(1.0, lambda: engine.after(0.5, lambda: seen.append(
            engine.now_s)))
        engine.run()
        assert seen == [1.5]

    def test_run_until_leaves_later_events_queued(self):
        engine = Engine()
        fired = []
        engine.at(1.0, lambda: fired.append(1))
        engine.at(2.0, lambda: fired.append(2))
        engine.run(until_s=1.5)
        assert fired == [1]
        assert engine.now_s == 1.5
        engine.run()
        assert fired == [1, 2]

    def test_event_exactly_at_horizon_runs(self):
        engine = Engine()
        fired = []
        engine.at(1.0, lambda: fired.append(1))
        engine.run(until_s=1.0)
        assert fired == [1]

    def test_max_events_cap(self):
        engine = Engine()
        fired = []
        for i in range(5):
            engine.at(float(i), lambda i=i: fired.append(i))
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_scheduling_in_the_past_rejected(self):
        engine = Engine()
        engine.at(1.0, lambda: None)
        engine.run()
        with pytest.raises(SchedulingError):
            engine.at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Engine().after(-0.1, lambda: None)

    def test_control_events_run_before_data_at_same_time(self):
        engine = Engine()
        order = []
        engine.at(1.0, lambda: order.append("data"))
        engine.at(1.0, lambda: order.append("control"), control=True)
        engine.run()
        assert order == ["control", "data"]

    def test_pair_orders_like_two_consecutive_schedules(self):
        # A station's server-free and emit tie when the NF has no
        # pipeline latency; the free must run first, as two separate
        # call_after_id calls would have it.
        engine = Engine()
        order = []
        first = engine.register_action(lambda: order.append("free"))
        second = engine.register_action(order.append)
        engine.call_after_id_pair(1.0, first, 1.0, second, "emit")
        engine.run()
        assert order == ["free", "emit"]

    def test_events_processed_counter(self):
        engine = Engine()
        for i in range(4):
            engine.at(float(i), lambda: None)
        engine.run()
        assert engine.events_processed == 4

    def test_reentrant_run_rejected(self):
        engine = Engine()
        failures = []

        def reenter():
            try:
                engine.run()
            except SchedulingError:
                failures.append(True)

        engine.at(1.0, reenter)
        engine.run()
        assert failures == [True]

    def test_closures_are_not_interned(self):
        engine = Engine()
        table_size = len(engine._queue._action_table)
        fired = []
        for i in range(1000):
            assert engine.after(i * 1e-6, lambda i=i: fired.append(i)) is None
        assert engine.at(1.0, lambda: None) is None
        engine.run()
        assert fired == list(range(1000))
        assert len(engine._queue._action_table) == table_size

    def test_rejected_stream_item_stops_only_its_stream(self):
        engine = Engine()
        trace = []
        engine.trace_to(trace)
        engine.at(0.5, lambda: None)
        engine.run()
        ran = []
        engine.call_at_id_many(engine.register_action(ran.append),
                               [(0.6, "a"), (0.7, "b"), (0.1, "c")])
        engine.at(0.65, lambda: ran.append("x"))
        assert engine.pending() == 2
        del trace[:]
        with pytest.raises(SchedulingError):
            engine.run()
        # "b" was dispatched, but drawing "c" failed before it ran:
        # traced, not counted.
        assert ran == ["a", "x"]
        assert [key[0] for key in trace] == [0.6, 0.65, 0.7]
        assert engine.events_processed == 3
        assert engine.pending() == 0
