"""The discrete-event engine: a clock and an event loop.

Minimal by design — the engine advances a clock through a deterministic
event queue.  Model logic (queues, NF servers, PCIe hops, migrations)
lives in the modules that schedule events on it.

The run loop is batched around the slab scheduler in
:mod:`repro.sim.events`: each iteration takes raw ``(time, priority,
seq, action, arg)`` entries straight off the slab, so no per-event
``Event`` object exists.  Subscribers receive ``(time_s, priority,
seq)`` trace keys in buffered batches rather than one callback per
event (see :meth:`Engine.add_trace_observer`), which is what keeps
instrumented runs — determinism tracing, the soak invariant engine —
on the fast path.
"""

from __future__ import annotations

import gc
from bisect import insort
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SchedulingError
from .events import (_NO_ARG, PRIORITY_CONTROL, PRIORITY_DATA, Event,
                     EventQueue)

#: Signature of a batched trace subscriber: called with a list of
#: ``(time_s, priority, seq)`` keys in execution order.  The list is
#: reused between flushes — observers must copy what they keep.
TraceObserver = Callable[[List[Tuple[float, int, int]]], None]

#: Trace keys buffered before a flush; bounds memory while amortising
#: the observer call over thousands of events.
_TRACE_BATCH = 8192


class Engine:
    """Runs scheduled actions in timestamp order.

    Slotted: the run loop and the id-scheduling fast path touch engine
    attributes on every event, and slot access keeps those loads and
    stores off the instance dict.
    """

    __slots__ = ("now_s", "_queue", "_running", "events_processed",
                 "_trace_observers", "_trace_buffer")

    def __init__(self) -> None:
        self.now_s: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self.events_processed: int = 0
        self._trace_observers: List[TraceObserver] = []
        self._trace_buffer: List[Tuple[float, int, int]] = []

    # -- observers ---------------------------------------------------------

    def add_trace_observer(self, observer: TraceObserver) -> None:
        """Subscribe to batched ``(time_s, priority, seq)`` trace keys.

        The cheap way to watch every event: keys are appended to a
        shared buffer and flushed to observers in execution order —
        every :data:`_TRACE_BATCH` events, whenever ``run()`` returns,
        and on :meth:`flush_trace`.  The buffer object is reused, so
        observers must not hold onto the list itself.
        """
        self._trace_observers.append(observer)

    def remove_trace_observer(self, observer: TraceObserver) -> None:
        """Unsubscribe a batched trace observer (no-op if absent)."""
        if observer in self._trace_observers:
            self._trace_observers.remove(observer)

    def flush_trace(self) -> None:
        """Deliver any buffered trace keys to trace observers now."""
        buffer = self._trace_buffer
        if buffer:
            for observer in tuple(self._trace_observers):
                observer(buffer)
            buffer.clear()

    def trace_to(self, sink: "list") -> None:
        """Record ``(time_s, priority, seq)`` of every executed event.

        Convenience wrapper around :meth:`add_trace_observer` for
        replay checks::

            trace: list = []
            runner.engine.trace_to(trace)

        The sink is complete whenever ``run()`` has returned.
        """
        self.add_trace_observer(sink.extend)

    # -- scheduling -------------------------------------------------------

    def at(self, time_s: float, action, control: bool = False) -> Event:
        """Schedule ``action`` at absolute time ``time_s``.

        ``control`` events (migrations, monitor ticks) run before data
        events at the same timestamp.
        """
        if time_s < self.now_s:
            raise SchedulingError(
                f"cannot schedule at {time_s:.9f}, clock is at {self.now_s:.9f}")
        priority = PRIORITY_CONTROL if control else PRIORITY_DATA
        return self._queue.push(time_s, action, priority)

    def after(self, delay_s: float, action, control: bool = False) -> Event:
        """Schedule ``action`` ``delay_s`` seconds from now."""
        if delay_s < 0:
            raise SchedulingError(f"negative delay {delay_s}")
        return self.at(self.now_s + delay_s, action, control)

    def register_action(self, action) -> int:
        """Intern a recurring callback; returns its action-table id.

        Model code registers its hot callbacks once at wiring time and
        then schedules them by id via :meth:`call_at_id` /
        :meth:`call_after_id` — the cheapest scheduling path there is
        (the calendar entry carries the id and argument; nothing else
        is stored).
        """
        return self._queue.register_action(action)

    def rebind_action(self, action_id: int, action) -> None:
        """Repoint a registered action id at a new callable (see
        :meth:`EventQueue.rebind_action`); how fault wrappers intercept
        id-scheduled hops."""
        self._queue.rebind_action(action_id, action)

    def call_at(self, time_s: float, action, arg: object = _NO_ARG,
                control: bool = False) -> None:
        """Handle-free :meth:`at`: schedule ``action(arg)`` at ``time_s``.

        For model code that never cancels: no :class:`Event` handle is
        built, and carrying ``arg`` in the calendar entry replaces the
        per-event closure.  Same validation and ordering as :meth:`at`.
        """
        if time_s < self.now_s:
            raise SchedulingError(
                f"cannot schedule at {time_s:.9f}, clock is at {self.now_s:.9f}")
        self._queue.schedule(
            time_s, action, PRIORITY_CONTROL if control else PRIORITY_DATA,
            arg)

    def call_at_id(self, time_s: float, action_id: int,
                   arg: object = _NO_ARG, control: bool = False) -> None:
        """Schedule a pre-registered action by id at ``time_s``.

        The calendar insert is inlined (the engine co-owns the
        scheduler; only the rare new-bucket case calls back into it) —
        this and :meth:`call_after_id` are the hottest calls in packet
        mode.
        """
        if time_s < self.now_s:
            raise SchedulingError(
                f"cannot schedule at {time_s:.9f}, clock is at {self.now_s:.9f}")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        entry = (time_s, PRIORITY_CONTROL if control else PRIORITY_DATA,
                 seq, action_id, arg)
        bucket_id = int(time_s * queue._inv_width)
        if bucket_id == queue._current_id:
            insort(queue._current, entry, queue._pos)
        else:
            bucket = queue._buckets.get(bucket_id)
            if bucket is None:
                queue._new_bucket(bucket_id, entry)
            else:
                bucket.append(entry)
        queue._count += 1

    def call_after_id(self, delay_s: float, action_id: int,
                      arg: object = _NO_ARG, control: bool = False) -> None:
        """Schedule a pre-registered action by id after a delay.

        A non-negative delay from ``now`` can never land before the
        clock, so no further validation is needed.
        """
        if delay_s < 0:
            raise SchedulingError(f"negative delay {delay_s}")
        time_s = self.now_s + delay_s
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        entry = (time_s, PRIORITY_CONTROL if control else PRIORITY_DATA,
                 seq, action_id, arg)
        bucket_id = int(time_s * queue._inv_width)
        if bucket_id == queue._current_id:
            insort(queue._current, entry, queue._pos)
        else:
            bucket = queue._buckets.get(bucket_id)
            if bucket is None:
                queue._new_bucket(bucket_id, entry)
            else:
                bucket.append(entry)
        queue._count += 1

    def call_after_id_pair(self, delay_a: float, action_id_a: int,
                           delay_b: float, action_id_b: int,
                           arg_b: object = _NO_ARG) -> None:
        """Schedule no-arg ``action_id_a`` after ``delay_a`` and
        ``action_id_b(arg_b)`` after ``delay_b`` in one call.

        Every served packet schedules exactly this pair (server-free at
        occupancy, emit at full delay); fusing them halves the call
        overhead and shares the per-call loads.  Seq order matches two
        consecutive :meth:`call_after_id` calls.
        """
        if delay_a < 0 or delay_b < 0:
            raise SchedulingError(
                f"negative delay in pair ({delay_a}, {delay_b})")
        now_s = self.now_s
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 2
        inv_width = queue._inv_width
        current_id = queue._current_id
        buckets = queue._buckets
        current = queue._current
        time_s = now_s + delay_a
        entry = (time_s, PRIORITY_DATA, seq, action_id_a, _NO_ARG)
        bucket_id = int(time_s * inv_width)
        if bucket_id == current_id:
            insort(current, entry, queue._pos)
        else:
            bucket = buckets.get(bucket_id)
            if bucket is None:
                queue._new_bucket(bucket_id, entry)
            else:
                bucket.append(entry)
        time_s = now_s + delay_b
        entry = (time_s, PRIORITY_DATA, seq + 1, action_id_b, arg_b)
        bucket_id = int(time_s * inv_width)
        if bucket_id == current_id:
            insort(current, entry, queue._pos)
        else:
            bucket = buckets.get(bucket_id)
            if bucket is None:
                queue._new_bucket(bucket_id, entry)
            else:
                bucket.append(entry)
        queue._count += 2

    def call_at_id_many(self, action_id: int,
                        items, control: bool = False) -> int:
        """Bulk :meth:`call_at_id` over ``(time_s, arg)`` pairs.

        The injection path for a whole arrival epoch; items may be any
        iterable (a generator keeps memory flat).  Returns the number
        of events scheduled.
        """
        return self._queue.schedule_id_many(
            action_id, PRIORITY_CONTROL if control else PRIORITY_DATA,
            items, floor_s=self.now_s)

    def call_after(self, delay_s: float, action, arg: object = _NO_ARG,
                   control: bool = False) -> None:
        """Handle-free :meth:`after`: schedule ``action(arg)`` after a delay.

        A non-negative delay from ``now`` can never land before the
        clock, so this schedules directly without :meth:`call_at`'s
        past-time check — it is the single hottest scheduling call in
        packet mode.
        """
        if delay_s < 0:
            raise SchedulingError(f"negative delay {delay_s}")
        self._queue.schedule(
            self.now_s + delay_s, action,
            PRIORITY_CONTROL if control else PRIORITY_DATA, arg)

    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    # -- execution ----------------------------------------------------------

    def run(self, until_s: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Drain the queue, optionally stopping at a horizon or event cap.

        Events at exactly ``until_s`` still execute; later events remain
        queued (so a paused simulation can be resumed).
        """
        if self._running:
            raise SchedulingError("engine is already running (re-entrant run())")
        self._running = True
        # Sentinels instead of None so the per-event checks are single
        # comparisons: event times are finite, so ``inf`` never trips
        # the horizon, and the event-cap stand-in outlasts any run.
        remaining = max_events if max_events is not None else (1 << 62)
        horizon = until_s if until_s is not None else float("inf")
        queue = self._queue
        tracing = bool(self._trace_observers)
        trace_buffer = self._trace_buffer
        # The drain loop reads the scheduler's slab columns and current
        # bucket directly (the engine co-owns the scheduler per the
        # simulation-safety lint); all *structural* mutation — bucket
        # swaps, demotions, the bucket heap — stays in
        # ``EventQueue._advance``.  ``queue._pos`` is re-synced before
        # every action and every return so the queue is consistent
        # whenever model code (or an exception) can observe it.
        table = queue._action_table
        cancelled = queue._cancelled
        actions = queue._actions
        args = queue._args
        seqs = queue._seqs
        free = queue._free
        bucket_heap = queue._bucket_heap
        # The drain loop allocates short-lived acyclic objects (calendar
        # entries, packets' latency math) at a rate that keeps tripping
        # gen-0 collections; none of them need the cycle collector, so
        # pause it for the duration of the run and restore on exit.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                # (Re-)localise the current bucket.  ``_advance`` bumps
                # ``_epoch`` whenever it swaps the bucket out from under
                # these locals, which sends us back here.
                current = queue._current
                pos = queue._pos
                current_id = queue._current_id
                epoch = queue._epoch
                n = len(current)
                # Countdown to the next trace flush (cheaper than a
                # len() per event); recomputed here because a flush may
                # happen from within an action via flush_trace().
                trace_left = _TRACE_BATCH - len(trace_buffer)
                while True:
                    if remaining <= 0:
                        queue._pos = pos
                        return
                    if ((bucket_heap and bucket_heap[0] < current_id)
                            or pos >= n):
                        queue._pos = pos
                        if pos >= n and not bucket_heap:
                            # Queue drained: the clock stays where the
                            # last event put it.
                            return
                        queue._advance()
                        break
                    time_s, priority, seq, action_id, arg = current[pos]
                    if action_id >= 0:
                        if time_s > horizon:
                            # Horizon reached with events still queued:
                            # advance the clock to the horizon.
                            queue._pos = pos
                            self.now_s = horizon
                            return
                        remaining -= 1
                        pos += 1
                        queue._pos = pos
                        queue._count -= 1
                        action = table[action_id]
                    else:
                        index = -1 - action_id
                        if cancelled[index]:
                            pos += 1
                            queue._pos = pos
                            queue._count -= 1
                            seqs[index] = -1
                            actions[index] = None
                            args[index] = None
                            free.append(index)
                            continue
                        if time_s > horizon:
                            queue._pos = pos
                            self.now_s = horizon
                            return
                        remaining -= 1
                        pos += 1
                        queue._pos = pos
                        queue._count -= 1
                        action = actions[index]
                        arg = _NO_ARG
                        seqs[index] = -1
                        actions[index] = None
                        args[index] = None
                        free.append(index)
                    self.now_s = time_s
                    if tracing:
                        trace_buffer.append((time_s, priority, seq))
                        trace_left -= 1
                        if trace_left <= 0:
                            self.flush_trace()
                            trace_left = _TRACE_BATCH
                    if arg is _NO_ARG:
                        action()
                    else:
                        action(arg)
                    self.events_processed += 1
                    if queue._epoch != epoch:
                        break
                    # The action may have insorted into the current
                    # bucket's unconsumed tail.
                    n = len(current)
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
            if tracing:
                self.flush_trace()

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Deterministic engine state for :mod:`repro.checkpoint`.

        ``now_s`` and ``pending`` are verify-only context: a snapshot
        is captured *inside* a tick action (the tick event already
        popped) while replay stops *before* that pop, so the checkpoint
        registry excludes them from the capture/replay comparison.
        """
        queue_state = self._queue.snapshot_state()
        return {
            "now_s": self.now_s,
            "events_processed": self.events_processed,
            "seq_counter": queue_state["seq_counter"],
            "pending": queue_state["pending"],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Re-impose checkpointed engine counters after replay.

        Deliberately leaves ``now_s`` alone: the clock advances when
        the replayed tick event pops, and overwriting it here would
        jump the clock past events still queued before the tick.
        """
        self.events_processed = int(state["events_processed"])
        self._queue.restore_state({"seq_counter": state["seq_counter"]})
