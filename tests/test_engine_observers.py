"""Tests for the engine's batched trace observers."""

from repro.sim.engine import Engine


def _schedule_three(engine):
    order = []
    engine.at(0.001, lambda: order.append("a"))
    engine.at(0.002, lambda: order.append("b"))
    engine.at(0.003, lambda: order.append("c"))
    return order


class TestObserverList:
    """Trace observers are a list: several subscribe side by side."""

    def test_observer_sees_every_event_in_order(self):
        engine = Engine()
        _schedule_three(engine)
        seen = []
        engine.add_trace_observer(
            lambda keys: seen.extend(time_s for time_s, _, _ in keys))
        engine.run()
        assert seen == [0.001, 0.002, 0.003]

    def test_observers_fire_in_subscription_order(self):
        engine = Engine()
        _schedule_three(engine)
        calls = []
        engine.add_trace_observer(lambda keys: calls.append("first"))
        engine.add_trace_observer(lambda keys: calls.append("second"))
        engine.run(max_events=1)
        assert calls == ["first", "second"]

    def test_remove_observer_stops_delivery(self):
        # Removing one subscriber leaves the others on the list.
        engine = Engine()
        _schedule_three(engine)
        kept, dropped = [], []
        def drop(keys):
            dropped.extend(time_s for time_s, _, _ in keys)
        engine.add_trace_observer(
            lambda keys: kept.extend(time_s for time_s, _, _ in keys))
        engine.add_trace_observer(drop)
        engine.run(max_events=1)
        engine.remove_trace_observer(drop)
        engine.run()
        assert dropped == [0.001]
        assert kept == [0.001, 0.002, 0.003]

    def test_remove_absent_observer_is_noop(self):
        engine = Engine()
        engine.remove_trace_observer(lambda keys: None)

    def test_observer_may_unsubscribe_mid_event(self):
        engine = Engine()
        _schedule_three(engine)
        seen = []
        def once(keys):
            seen.extend(time_s for time_s, _, _ in keys)
            engine.remove_trace_observer(once)
        engine.add_trace_observer(once)
        engine.run(max_events=1)
        engine.run()
        assert seen == [0.001]

    def test_trace_to_records_time_priority_seq(self):
        engine = Engine()
        _schedule_three(engine)
        engine.at(0.001, lambda: None, control=True)
        trace = []
        engine.trace_to(trace)
        engine.run()
        assert trace == sorted(trace)
        assert all(len(entry) == 3 for entry in trace)

    def test_no_legacy_on_event_property(self):
        # The deprecated single-slot `on_event` observer is gone; the
        # batched trace-observer list is the only subscription surface.
        assert not hasattr(Engine, "on_event")


class TestTraceObservers:
    def test_batches_arrive_in_execution_order(self):
        engine = Engine()
        _schedule_three(engine)
        engine.at(0.001, lambda: None, control=True)
        batches = []
        engine.add_trace_observer(lambda keys: batches.append(list(keys)))
        engine.run()
        keys = [key for batch in batches for key in batch]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_run_returns_with_trace_flushed(self):
        engine = Engine()
        _schedule_three(engine)
        sink = []
        engine.trace_to(sink)
        engine.run(max_events=2)
        assert len(sink) == 2
        engine.run()
        assert len(sink) == 3

    def test_remove_trace_observer_stops_delivery(self):
        engine = Engine()
        _schedule_three(engine)
        batches = []
        def observer(keys):
            batches.append(list(keys))
        engine.add_trace_observer(observer)
        engine.run(max_events=1)
        engine.remove_trace_observer(observer)
        engine.run()
        assert sum(len(batch) for batch in batches) == 1
