"""Property tests: the engine's drain loop against a reference heap.

``Engine.run`` over the :class:`~repro.sim.events.EventQueue` heap and
its presorted arrival lane must execute events in exactly the order a
plain min-heap of ``(time_s, priority, seq)`` keys would — under random
schedules mixing closures, registered action ids and batches through
``call_at_id_many`` (sorted or not, issued before the run or from
inside an action mid-run), simultaneous events, single steps
(``run(max_events=1)``) and horizon stops (``run(until_s=t)``) with
scheduling in between.  Hypothesis drives the schedules; the reference
model is a ``heapq``.
"""

from __future__ import annotations

import heapq

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.sim.engine import Engine  # noqa: E402
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_DATA  # noqa: E402

# Arbitrary times plus a grid that forces exact collisions (same
# timestamp, so priority and seq decide — between the heap and the lane
# too).
_GRID = [0.0, 1e-6, 3.2e-5, 6.4e-5, 1e-4, 9.7e-4]
_TIME = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3,
              allow_nan=False, allow_infinity=False),
    st.sampled_from(_GRID))
_PRIORITY = st.sampled_from([PRIORITY_CONTROL, PRIORITY_DATA])
_TIMES = st.lists(_TIME, max_size=12)

#: One engine interaction: a closure via ``at``, a registered action via
#: ``call_at_id``, a batch via ``call_at_id_many``, a closure that
#: issues a batch when it runs, a single step, or a horizon stop the
#: drawn offset past now.
_OP = st.one_of(
    st.tuples(st.just("push"), _TIME, _PRIORITY),
    st.tuples(st.just("sched"), _TIME, _PRIORITY),
    st.tuples(st.just("batch"), _TIMES, _PRIORITY),
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
        self.seq = 0

    def add(self, time_s: float, priority: int, on_pop=None) -> int:
        seq = self.seq
        self.seq += 1
        heapq.heappush(self._heap, (time_s, priority, seq))
        if on_pop is not None:
            self._on_pop[seq] = on_pop
        return seq

    def __len__(self) -> int:
        return len(self._heap)

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

    def batch(self, times, priority: int) -> None:
        """A batch through ``Engine.call_at_id_many``, in drawn order
        (so usually unsorted); seqs follow item order."""
        times = [max(time_s, self.engine.now_s) for time_s in times]
        seqs = [self.reference.add(time_s, priority) for time_s in times]
        scheduled = self.engine.call_at_id_many(
            self.action_id, list(zip(times, seqs)),
            control=priority == PRIORITY_CONTROL)
        assert scheduled == len(times)

    def spawn(self, time_s: float, offsets, priority: int) -> None:
        """A closure at ``time_s`` that, when it runs, issues a batch at
        ``time_s + offset`` for each offset: injection mid-run."""
        time_s = max(time_s, self.engine.now_s)
        seqs = []

        def reference_spawn():
            seqs.extend(self.reference.add(time_s + offset, priority)
                        for offset in offsets)

        seq = self.reference.add(time_s, PRIORITY_DATA, reference_spawn)

        def spawn_batch():
            self.ran.append(seq)
            self.engine.call_at_id_many(
                self.action_id,
                [(time_s + offset, batch_seq)
                 for offset, batch_seq in zip(offsets, seqs)],
                control=priority == PRIORITY_CONTROL)

        self.engine.at(time_s, spawn_batch)

    def run(self, expected, **kwargs) -> None:
        """Run the engine and require exactly ``expected`` keys."""
        del self.trace[:]
        del self.ran[:]
        self.engine.run(**kwargs)
        assert self.trace == expected
        assert self.ran == [key[2] for key in expected]
        assert self.engine.pending() == len(self.reference)

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
        elif op[0] == "batch":
            harness.batch(op[1], op[2])
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
# Two interleaved batches, the second issued after the lane was partly
# consumed, plus heap entries tying with lane entries.
@example(first=[1e-6, 3.2e-5, 6.4e-5, 1e-4], second=[6.4e-5, 2e-6, 9.7e-4],
         singles=[3.2e-5, 1e-4], cut=3.2e-5, priority=PRIORITY_DATA)
def test_batches_merge_into_a_partly_consumed_lane(first, second, singles,
                                                   cut, priority):
    """A second batch merges with the unconsumed lane tail, and single
    schedules interleave with both, in exact key order."""
    harness = _Harness()
    harness.batch(first, priority)
    for time_s in singles:
        harness.sched(time_s, priority)
    harness.stop(cut)
    harness.batch(second, priority)
    harness.drain()


class TestArrivalLane:
    """The lane cases, one schedule each."""

    def test_unsorted_batch_runs_in_time_order(self):
        harness = _Harness()
        harness.batch([3e-6, 1e-6, 2e-6, 1e-6], PRIORITY_DATA)
        harness.drain()
        assert [key[0] for key in harness.trace] == [1e-6, 1e-6, 2e-6, 3e-6]
        # Equal times keep item order: seq 1 was issued before seq 3.
        assert [key[2] for key in harness.trace] == [1, 3, 2, 0]

    def test_second_batch_merges_into_partly_consumed_lane(self):
        harness = _Harness()
        harness.batch([1e-6, 2e-6, 3e-6, 4e-6], PRIORITY_DATA)
        harness.step()
        harness.step()
        harness.batch([2.5e-6, 5e-6, 3e-6], PRIORITY_DATA)
        harness.drain()
        assert [key[2] for key in harness.trace] == [4, 2, 6, 3, 5]

    def test_batch_issued_from_inside_an_action(self):
        harness = _Harness()
        harness.batch([1e-6, 4e-6], PRIORITY_DATA)
        harness.spawn(2e-6, [3e-6, 0.0, 1e-6], PRIORITY_DATA)
        harness.drain()
        # Seqs 3-5 are issued when the spawn (seq 2) runs at 2 us.
        assert [key[2] for key in harness.trace] == [0, 2, 4, 5, 1, 3]

    def test_lane_and_heap_ties_break_by_priority_then_seq(self):
        harness = _Harness()
        harness.sched(1e-6, PRIORITY_DATA)
        harness.batch([1e-6, 1e-6], PRIORITY_DATA)
        harness.sched(1e-6, PRIORITY_DATA)
        harness.push(1e-6, PRIORITY_CONTROL)
        harness.batch([1e-6], PRIORITY_CONTROL)
        harness.drain()
        assert [key[2] for key in harness.trace] == [4, 5, 0, 1, 2, 3]
