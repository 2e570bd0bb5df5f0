"""Property tests: the engine's drain loop against a reference heap.

``Engine.run`` over the calendar-queue :class:`~repro.sim.events.EventQueue`
must execute events in exactly the order a plain min-heap of
``(time_s, priority, seq)`` keys would — under random schedules mixing
closures and registered action ids, simultaneous events, single steps
(``run(max_events=1)``) and horizon stops (``run(until_s=t)``) with
pushes in between.  A horizon stop can leave a later bucket current,
so a push after it that lands earlier exercises the bucket-preemption
path.  Hypothesis drives the schedules; the reference model is a
``heapq``.
"""

from __future__ import annotations

import heapq

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.errors import SchedulingError  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.sim.events import (DEFAULT_BUCKET_WIDTH_S,  # noqa: E402
                              PRIORITY_CONTROL, PRIORITY_DATA)

# Times spanning many calendar buckets plus a grid that forces exact
# collisions (same bucket, same timestamp).
_GRID = [0.0, 1e-6, DEFAULT_BUCKET_WIDTH_S, DEFAULT_BUCKET_WIDTH_S * 2,
         1e-4, 9.7e-4]
_TIME = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3,
              allow_nan=False, allow_infinity=False),
    st.sampled_from(_GRID))
_PRIORITY = st.sampled_from([PRIORITY_CONTROL, PRIORITY_DATA])

#: One engine interaction: a closure via ``at``, a registered action via
#: ``call_at_id``, a single step, or a horizon stop the drawn offset
#: past now.
_OP = st.one_of(
    st.tuples(st.just("push"), _TIME, _PRIORITY),
    st.tuples(st.just("sched"), _TIME, _PRIORITY),
    st.tuples(st.just("step")),
    st.tuples(st.just("stop"), _TIME),
)


class _ReferenceHeap:
    """The specification: a min-heap of full keys."""

    def __init__(self) -> None:
        self._heap = []
        self.seq = 0

    def add(self, time_s: float, priority: int) -> int:
        seq = self.seq
        self.seq += 1
        heapq.heappush(self._heap, (time_s, priority, seq))
        return seq

    def __len__(self) -> int:
        return len(self._heap)

    def pop(self):
        return heapq.heappop(self._heap) if self._heap else None

    def pop_until(self, until_s: float):
        keys = []
        while self._heap and self._heap[0][0] <= until_s:
            keys.append(heapq.heappop(self._heap))
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


@settings(max_examples=60, deadline=None)
@given(st.lists(_OP, max_size=120))
def test_drain_order_matches_reference_heap(ops):
    """Any op interleaving executes in exact ``(time, priority, seq)`` order."""
    harness = _Harness()
    for op in ops:
        if op[0] == "push":
            harness.push(op[1], op[2])
        elif op[0] == "sched":
            harness.sched(op[1], op[2])
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
# Stopping at 50us runs the 0 us event, then loads the 100 us bucket and
# stops before it; the 60 us push lands in an earlier bucket than the
# current one, which is the preemption path.
@example(first=[(0.0, PRIORITY_DATA), (1e-4, PRIORITY_DATA)],
         second=[(6e-5, PRIORITY_DATA)], cut=5e-5)
def test_late_pushes_interleave_in_key_order(first, second, cut):
    """Pushes after a horizon stop (even before the current bucket) stay
    ordered: the remaining drain is the reference heap's order exactly.
    """
    harness = _Harness()
    for time_s, priority in first:
        harness.push(time_s, priority)
    harness.stop(cut)
    for time_s, priority in second:
        harness.push(time_s, priority)
    harness.drain()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 40),
       st.integers(min_value=0, max_value=2 ** 20),
       st.integers(min_value=1, max_value=2 ** 20))
def test_seq_counter_snapshot_restore_roundtrip(start, scheduled, rewind):
    """The counter restores exactly and refuses to run backwards."""
    engine = Engine()
    engine.restore_state({"events_processed": 0, "seq_counter": start})
    for _ in range(scheduled % 5):
        engine.at(1e-6, lambda: None)
    state = engine.snapshot_state()
    assert state["seq_counter"] == start + scheduled % 5
    assert state["pending"] == engine.pending()

    fresh = Engine()
    fresh.restore_state(state)
    trace = []
    fresh.trace_to(trace)
    # New events continue the restored numbering.
    fresh.at(1e-6, lambda: None)
    fresh.run()
    assert trace == [(1e-6, PRIORITY_DATA, state["seq_counter"])]

    with pytest.raises(SchedulingError):
        engine.restore_state({"events_processed": 0,
                              "seq_counter": state["seq_counter"] - rewind})
