"""The discrete-event engine: a clock and an event loop.

Minimal by design — the engine advances a clock through a deterministic
event queue.  Model logic (queues, NF servers, PCIe hops, migrations)
lives in the modules that schedule events on it.

The run loop is batched around the scheduler in :mod:`repro.sim.events`:
each iteration pops a raw ``(time, priority, seq, action_id, arg)``
entry straight off the heap, so no per-event object exists.
Subscribers receive ``(time_s, priority, seq)`` trace keys in buffered
batches rather than one callback per event (see
:meth:`Engine.add_trace_observer`), which is what keeps instrumented
runs — determinism tracing, the soak invariant engine — on the fast
path.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..errors import SchedulingError
from .events import _NO_ARG, PRIORITY_CONTROL, PRIORITY_DATA, EventQueue

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

    def at(self, time_s: float, action, control: bool = False) -> None:
        """Schedule the closure ``action`` at absolute time ``time_s``.

        For one-off actions; recurring ones should be registered and
        scheduled by id.  ``control`` events (migrations, monitor
        ticks) run before data events at the same timestamp.
        """
        if time_s < self.now_s:
            raise SchedulingError(
                f"cannot schedule at {time_s:.9f}, clock is at {self.now_s:.9f}")
        priority = PRIORITY_CONTROL if control else PRIORITY_DATA
        self._queue.push(time_s, action, priority)

    def after(self, delay_s: float, action, control: bool = False) -> None:
        """Schedule the closure ``action`` ``delay_s`` seconds from now."""
        if delay_s < 0:
            raise SchedulingError(f"negative delay {delay_s}")
        self.at(self.now_s + delay_s, action, control)

    def register_action(self, action) -> int:
        """Intern a recurring callback; returns its action-table id.

        Model code registers its hot callbacks once at wiring time and
        then schedules them by id via :meth:`call_at_id` /
        :meth:`call_after_id` — the cheapest scheduling path there is
        (the queue entry carries the id and argument; nothing else is
        stored).
        """
        return self._queue.register_action(action)

    def rebind_action(self, action_id: int, action) -> None:
        """Repoint a registered action id at a new callable (see
        :meth:`EventQueue.rebind_action`); how fault wrappers intercept
        id-scheduled hops."""
        self._queue.rebind_action(action_id, action)

    def call_at(self, time_s: float, action, arg: object = _NO_ARG,
                control: bool = False) -> None:
        """Schedule the recurring ``action(arg)`` at ``time_s``.

        ``action`` is interned in the action table and ``arg`` rides in
        the queue entry, which replaces a per-event closure.  Same
        validation and ordering as :meth:`at`.
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

        The heap push is inlined (the engine co-owns the scheduler) —
        this and :meth:`call_after_id` are the hottest calls in packet
        mode.
        """
        if time_s < self.now_s:
            raise SchedulingError(
                f"cannot schedule at {time_s:.9f}, clock is at {self.now_s:.9f}")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (time_s,
                               PRIORITY_CONTROL if control else PRIORITY_DATA,
                               seq, action_id, arg))

    def call_after_id(self, delay_s: float, action_id: int,
                      arg: object = _NO_ARG, control: bool = False) -> None:
        """Schedule a pre-registered action by id after a delay.

        A non-negative delay from ``now`` can never land before the
        clock, so no further validation is needed.
        """
        if delay_s < 0:
            raise SchedulingError(f"negative delay {delay_s}")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (self.now_s + delay_s,
                               PRIORITY_CONTROL if control else PRIORITY_DATA,
                               seq, action_id, arg))

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
        heap = queue._heap
        seq = queue._seq
        queue._seq = seq + 2
        heappush(heap, (now_s + delay_a, PRIORITY_DATA, seq, action_id_a,
                        _NO_ARG))
        heappush(heap, (now_s + delay_b, PRIORITY_DATA, seq + 1,
                        action_id_b, arg_b))

    def call_at_id_many(self, action_id: int,
                        items, control: bool = False) -> None:
        """Stream :meth:`call_at_id` over time-ordered ``(time_s, arg)`` pairs.

        The injection path for a whole arrival epoch: ``items`` may be
        any iterable, and is consumed lazily — one item is pending at a
        time, the next drawn as it runs (see
        :meth:`EventQueue.schedule_stream`).  An item earlier than its
        predecessor or the clock raises :class:`SchedulingError` when
        it is drawn, from here for the first and from :meth:`run` for
        the rest, as does any error of the iterable itself.
        """
        self._queue.schedule_stream(
            action_id, PRIORITY_CONTROL if control else PRIORITY_DATA,
            items, floor_s=self.now_s)

    def call_after(self, delay_s: float, action, arg: object = _NO_ARG,
                   control: bool = False) -> None:
        """Schedule the recurring ``action(arg)`` after a delay.

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
        """Number of events still queued (one per live stream)."""
        return len(self._queue)

    def clear_pending(self) -> None:
        """Drop every queued entry, and with them the live streams,
        unexecuted.

        The end of a run whose result has been collected: entries carry
        packets and closures, which then go by reference counting
        instead of waiting for the cycle collector.
        """
        if self._running:
            raise SchedulingError("cannot clear the queue while running")
        self._queue._heap.clear()

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
        budget = max(max_events, 0) if max_events is not None else (1 << 62)
        horizon = until_s if until_s is not None else float("inf")
        queue = self._queue
        tracing = bool(self._trace_observers)
        trace_buffer = self._trace_buffer
        # The drain loop reads the scheduler's action table and heap
        # directly (the engine co-owns the scheduler per the
        # simulation-safety lint).  The scheduler mutates both only in
        # place, so these locals stay valid across actions, and the
        # queue is consistent whenever model code can observe it.
        table = queue._action_table
        heap = queue._heap
        pop = heappop
        no_arg = _NO_ARG
        # Countdown to the next trace flush (cheaper than a len() per
        # event); a flush from within an action (flush_trace) only makes
        # the next one early.
        trace_left = _TRACE_BATCH - len(trace_buffer)
        # The drain loop allocates short-lived acyclic objects (queue
        # entries, packets' latency math) at a rate that keeps tripping
        # gen-0 collections, so pause the collector for the duration of
        # the run and restore on exit.  The run's own object graph *is*
        # cyclic (the action table points at station and network
        # callbacks, which point back at the engine): a finished run's
        # packets stay resident until a full collection, which these
        # pauses make rarer still, unless the run's owner releases it
        # (SimulationRunner.release).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # Actions completed so far: the loop index counts them, so the
        # per-event bookkeeping is the loop's own.
        completed = 0
        try:
            for completed in range(budget):
                if not heap:
                    # Queue drained: the clock stays where the last
                    # event put it.
                    break
                time_s, priority, seq, action_id, arg = pop(heap)
                if time_s > horizon:
                    # Horizon reached with events still queued: put the
                    # entry back and advance the clock to the horizon.
                    heappush(heap, (time_s, priority, seq, action_id, arg))
                    self.now_s = horizon
                    break
                self.now_s = time_s
                if tracing:
                    trace_buffer.append((time_s, priority, seq))
                    trace_left -= 1
                    if trace_left <= 0:
                        self.flush_trace()
                        trace_left = _TRACE_BATCH
                if arg is no_arg:
                    table[action_id]()
                else:
                    table[action_id](arg)
            else:
                # Event cap reached, every action completed.
                completed = budget
        finally:
            self.events_processed += completed
            self._running = False
            if gc_was_enabled:
                gc.enable()
            if tracing:
                self.flush_trace()
