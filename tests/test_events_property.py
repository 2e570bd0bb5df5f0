"""Property tests: the engine's drain loop against a reference heap.

``Engine.run`` over the :class:`~repro.sim.events.EventQueue` heap and
its lazily drawn streams must execute events in exactly the order a
plain min-heap of ``(time_s, priority, seq)`` keys would, with one seq
per item — under random schedules mixing closures, registered action
ids and streams through ``call_at_id_many`` (issued before the run or
from inside an action mid-run), simultaneous events, single steps
(``run(max_events=1)``) and horizon stops (``run(until_s=t)``) with
scheduling in between.  Hypothesis drives the schedules; the reference
model is a ``heapq``.

Stream entries share one seq, so the engine's trace keys differ from
the reference's in that field: the checks compare ``(time_s,
priority)`` order, plus the order in which the actions' arguments (the
reference seqs) run.
"""

from __future__ import annotations

import heapq

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.errors import SchedulingError  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_DATA  # noqa: E402

# Arbitrary times plus a grid that forces exact collisions (same
# timestamp, so priority and seq decide — between heap entries and
# stream entries too).
_GRID = [0.0, 1e-6, 3.2e-5, 6.4e-5, 1e-4, 9.7e-4]
_TIME = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3,
              allow_nan=False, allow_infinity=False),
    st.sampled_from(_GRID))
_PRIORITY = st.sampled_from([PRIORITY_CONTROL, PRIORITY_DATA])
_TIMES = st.lists(_TIME, max_size=12)

#: One engine interaction: a closure via ``at``, a registered action via
#: ``call_at_id``, a stream via ``call_at_id_many``, a closure that
#: issues a stream when it runs, a single step, or a horizon stop the
#: drawn offset past now.
_OP = st.one_of(
    st.tuples(st.just("push"), _TIME, _PRIORITY),
    st.tuples(st.just("sched"), _TIME, _PRIORITY),
    st.tuples(st.just("stream"), _TIMES, _PRIORITY),
    st.tuples(st.just("spawn"), _TIME, _TIMES, _PRIORITY),
    st.tuples(st.just("step")),
    st.tuples(st.just("stop"), _TIME),
)


class _ReferenceHeap:
    """The specification: a min-heap of full keys.

    ``on_pop`` callbacks model actions that schedule when they run: the
    reference calls them as it pops their key, so the seqs they draw
    follow execution order exactly as the engine's do.
    """

    def __init__(self) -> None:
        self._heap = []
        self._on_pop = {}
        #: Stream index of each seq that belongs to a stream.
        self._stream_of = {}
        self._streams = 0
        self.seq = 0

    def add(self, time_s: float, priority: int, on_pop=None,
            stream=None) -> int:
        seq = self.seq
        self.seq += 1
        heapq.heappush(self._heap, (time_s, priority, seq))
        if on_pop is not None:
            self._on_pop[seq] = on_pop
        if stream is not None:
            self._stream_of[seq] = stream
        return seq

    def add_stream(self, times, priority: int):
        """One seq per item, in item order, all in a new stream."""
        stream = self._streams
        self._streams += 1
        return [self.add(time_s, priority, stream=stream)
                for time_s in times]

    def pending(self) -> int:
        """What the engine holds: every single entry, and one entry per
        stream with items left."""
        singles = [key for key in self._heap
                   if key[2] not in self._stream_of]
        streams = {self._stream_of[key[2]] for key in self._heap
                   if key[2] in self._stream_of}
        return len(singles) + len(streams)

    def _pop(self):
        key = heapq.heappop(self._heap)
        on_pop = self._on_pop.pop(key[2], None)
        if on_pop is not None:
            on_pop()
        return key

    def pop(self):
        return self._pop() if self._heap else None

    def pop_until(self, until_s: float):
        keys = []
        while self._heap and self._heap[0][0] <= until_s:
            keys.append(self._pop())
        return keys

    def drain(self):
        return self.pop_until(float("inf"))


class _Harness:
    """An engine plus the reference it must match, step by step.

    Every executed event appends its reference seq to ``ran`` from
    inside the action, so the checks cover dispatch (right callable,
    right argument) as well as the trace key order.
    """

    def __init__(self) -> None:
        self.engine = Engine()
        self.reference = _ReferenceHeap()
        self.trace = []
        self.ran = []
        self.engine.trace_to(self.trace)
        self.action_id = self.engine.register_action(self.ran.append)

    def push(self, time_s: float, priority: int) -> None:
        """A closure through ``Engine.at`` (never earlier than now)."""
        time_s = max(time_s, self.engine.now_s)
        seq = self.reference.add(time_s, priority)
        self.engine.at(time_s, lambda: self.ran.append(seq),
                       control=priority == PRIORITY_CONTROL)

    def sched(self, time_s: float, priority: int) -> None:
        """A registered action through ``Engine.call_at_id``."""
        time_s = max(time_s, self.engine.now_s)
        seq = self.reference.add(time_s, priority)
        self.engine.call_at_id(time_s, self.action_id, seq,
                               control=priority == PRIORITY_CONTROL)

    def stream(self, times, priority: int) -> None:
        """A stream through ``Engine.call_at_id_many``: the drawn times
        sorted, none before now, handed over as a lazy generator."""
        times = sorted(max(time_s, self.engine.now_s) for time_s in times)
        seqs = self.reference.add_stream(times, priority)
        self.engine.call_at_id_many(
            self.action_id, (item for item in zip(times, seqs)),
            control=priority == PRIORITY_CONTROL)

    def spawn(self, time_s: float, offsets, priority: int) -> None:
        """A closure at ``time_s`` that, when it runs, issues a stream at
        ``time_s + offset`` for each (sorted) offset: injection mid-run."""
        time_s = max(time_s, self.engine.now_s)
        times = [time_s + offset for offset in sorted(offsets)]
        seqs = []

        def reference_spawn():
            seqs.extend(self.reference.add_stream(times, priority))

        seq = self.reference.add(time_s, PRIORITY_DATA, reference_spawn)

        def spawn_stream():
            self.ran.append(seq)
            self.engine.call_at_id_many(
                self.action_id, (item for item in zip(times, seqs)),
                control=priority == PRIORITY_CONTROL)

        self.engine.at(time_s, spawn_stream)

    def run(self, expected, **kwargs) -> None:
        """Run the engine and require exactly ``expected`` keys: their
        ``(time_s, priority)`` order, and their reference seqs as the
        order the actions ran in."""
        del self.trace[:]
        del self.ran[:]
        self.engine.run(**kwargs)
        assert [key[:2] for key in self.trace] == \
            [key[:2] for key in expected]
        assert self.ran == [key[2] for key in expected]
        assert self.engine.pending() == self.reference.pending()

    def step(self) -> None:
        key = self.reference.pop()
        self.run([key] if key else [], max_events=1)

    def stop(self, until_s: float) -> None:
        self.run(self.reference.pop_until(until_s), until_s=until_s)

    def drain(self) -> None:
        self.run(self.reference.drain())
        assert self.engine.pending() == 0


@settings(max_examples=80, deadline=None)
@given(st.lists(_OP, max_size=120))
def test_drain_order_matches_reference_heap(ops):
    """Any op interleaving executes in exact ``(time, priority, seq)`` order."""
    harness = _Harness()
    for op in ops:
        if op[0] == "push":
            harness.push(op[1], op[2])
        elif op[0] == "sched":
            harness.sched(op[1], op[2])
        elif op[0] == "stream":
            harness.stream(op[1], op[2])
        elif op[0] == "spawn":
            harness.spawn(op[1], op[2], op[3])
        elif op[0] == "step":
            harness.step()
        else:
            harness.stop(harness.engine.now_s + op[1])
    harness.drain()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=64), _TIME)
def test_simultaneous_events_order_by_priority_then_seq(count, time_s):
    """Identical timestamps break ties by priority, then insertion seq."""
    harness = _Harness()
    for index in range(count):
        harness.push(time_s, PRIORITY_CONTROL if index % 3 == 0
                     else PRIORITY_DATA)
    harness.drain()
    # Control always precedes data at the shared timestamp.
    priorities = [key[1] for key in harness.trace]
    assert priorities == sorted(priorities)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_TIME, _PRIORITY), min_size=1, max_size=40),
       st.lists(st.tuples(_TIME, _PRIORITY), max_size=40),
       _TIME)
# Stopping at 50 us runs the 0 us event and stops before the 100 us
# one; the 60 us push then lands ahead of everything still queued.
@example(first=[(0.0, PRIORITY_DATA), (1e-4, PRIORITY_DATA)],
         second=[(6e-5, PRIORITY_DATA)], cut=5e-5)
def test_late_pushes_interleave_in_key_order(first, second, cut):
    """Pushes after a horizon stop stay ordered: the remaining drain is
    the reference heap's order exactly.
    """
    harness = _Harness()
    for time_s, priority in first:
        harness.push(time_s, priority)
    harness.stop(cut)
    for time_s, priority in second:
        harness.push(time_s, priority)
    harness.drain()


@settings(max_examples=40, deadline=None)
@given(_TIMES, _TIMES, _TIMES, _TIME, _PRIORITY)
# Two interleaved streams, the second issued after the first was partly
# consumed, plus heap entries tying with stream entries.
@example(first=[1e-6, 3.2e-5, 6.4e-5, 1e-4], second=[6.4e-5, 2e-6, 9.7e-4],
         singles=[3.2e-5, 1e-4], cut=3.2e-5, priority=PRIORITY_DATA)
def test_streams_interleave_with_a_partly_consumed_stream(
        first, second, singles, cut, priority):
    """A second stream started mid-run interleaves with the first's
    remaining items, and single schedules with both, in exact key
    order."""
    harness = _Harness()
    harness.stream(first, priority)
    for time_s in singles:
        harness.sched(time_s, priority)
    harness.stop(cut)
    harness.stream(second, priority)
    harness.drain()


class _Items:
    """A ``(time_s, arg)`` iterator that counts the items drawn."""

    def __init__(self, items) -> None:
        self._items = iter(items)
        self.drawn = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.drawn += 1
        return item


class TestStreams:
    """The stream cases, one schedule each."""

    def test_items_are_drawn_one_at_a_time(self):
        engine = Engine()
        ran = []
        items = _Items((time_s, time_s) for time_s in (1e-6, 2e-6, 3e-6))
        engine.call_at_id_many(engine.register_action(ran.append), items)
        # One pending entry stands for the whole stream.
        assert (items.drawn, engine.pending()) == (1, 1)
        engine.run(max_events=1)
        assert (ran, items.drawn, engine.pending()) == ([1e-6], 2, 1)
        engine.run()
        assert (ran, items.drawn, engine.pending()) == (
            [1e-6, 2e-6, 3e-6], 3, 0)
        assert engine.events_processed == 3

    def test_stream_started_mid_run_interleaves(self):
        harness = _Harness()
        harness.stream([1e-6, 2e-6, 3e-6, 4e-6], PRIORITY_DATA)
        harness.step()
        harness.step()
        harness.stream([2.5e-6, 3e-6, 5e-6], PRIORITY_DATA)
        assert harness.engine.pending() == 2
        harness.drain()
        # Seqs 0-3 are the first stream, 4-6 the second: at 3 us the
        # first stream's item was issued first.
        assert harness.ran == [4, 2, 5, 3, 6]

    def test_stream_issued_from_inside_an_action(self):
        harness = _Harness()
        harness.stream([1e-6, 4e-6], PRIORITY_DATA)
        harness.spawn(2e-6, [3e-6, 0.0, 1e-6], PRIORITY_DATA)
        harness.drain()
        # Seqs 3-5 (at 2, 3 and 5 us) are issued when the spawn (seq 2)
        # runs at 2 us.
        assert harness.ran == [0, 2, 3, 4, 1, 5]

    def test_stream_and_heap_ties_break_by_priority_then_issue_order(self):
        harness = _Harness()
        harness.sched(1e-6, PRIORITY_DATA)
        harness.stream([1e-6, 1e-6], PRIORITY_DATA)
        harness.sched(1e-6, PRIORITY_DATA)
        harness.push(1e-6, PRIORITY_CONTROL)
        harness.stream([1e-6], PRIORITY_CONTROL)
        harness.drain()
        assert harness.ran == [4, 5, 0, 1, 2, 3]

    def test_out_of_order_item_raises_when_drawn(self):
        engine = Engine()
        ran = []
        engine.call_at_id_many(engine.register_action(ran.append),
                               [(0.6, "a"), (0.7, "b"), (0.65, "c")])
        engine.at(0.62, lambda: ran.append("x"))
        # Drawing "c" while dispatching "b" fails before "b" runs.
        with pytest.raises(SchedulingError, match="before 0.700000000"):
            engine.run()
        assert ran == ["a", "x"]
        assert engine.events_processed == 2
        assert engine.pending() == 0
        # The engine is usable afterwards.
        engine.at(0.8, lambda: ran.append("y"))
        engine.run()
        assert ran == ["a", "x", "y"]

    def test_item_below_the_clock_raises_at_the_call(self):
        engine = Engine()
        engine.at(0.5, lambda: None)
        engine.run()
        action_id = engine.register_action(lambda tag: None)
        with pytest.raises(SchedulingError, match="before 0.500000000"):
            engine.call_at_id_many(action_id, [(0.1, "a"), (0.6, "b")])
        assert engine.pending() == 0

    def test_iterable_error_surfaces_from_run_with_its_type(self):
        def items():
            yield 1e-6, "a"
            raise KeyError("broken workload")

        engine = Engine()
        ran = []
        engine.call_at_id_many(engine.register_action(ran.append), items())
        with pytest.raises(KeyError, match="broken workload"):
            engine.run()
        assert ran == []
        assert engine.pending() == 0

    def test_empty_stream_schedules_nothing(self):
        engine = Engine()
        engine.call_at_id_many(engine.register_action(lambda tag: None),
                               iter(()))
        assert engine.pending() == 0
        engine.run()
        assert engine.events_processed == 0
