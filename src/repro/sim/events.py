"""Event primitives for the discrete-event engine.

Events are ``(time, priority, seq, action_id, arg)`` entries ordered by
time, then priority, then insertion order, so simultaneous events
execute deterministically.  ``action_id`` indexes an action table of
callables taking zero arguments or one pre-bound ``arg``; the engine
knows nothing about packets or NFs, which keeps it reusable for the
migration and telemetry machinery.

There is one entry form.  Model code registers its recurring callbacks
once and schedules them by id; a one-off closure (``Engine.at/after``)
rides as the ``arg`` of the reserved :data:`_CALL_ID`, whose callable
just calls its argument.  No per-event object exists beyond the entry
tuple, and nothing is cancellable.

Pending entries live in two places:

* the **heap** — one ``heapq`` min-heap; every single schedule is one
  ``heappush``;
* the **arrival lane** — a presorted list filled by
  :meth:`EventQueue.schedule_id_many`, the injection path that
  schedules a whole run's packets up front.  It is kept in descending
  order, so its head is the last element and consuming it is one
  ``list.pop()`` that frees the entry as it runs.

The engine's run loop takes whichever of the lane head and the heap top
is smaller, comparing the full tuple.  ``seq`` is unique, so the
comparison never reaches the trailing fields, and the drain order is
exactly that of one global min-heap of ``(time, priority, seq)`` keys.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, Iterable, List, Tuple

from ..errors import SchedulingError

Action = Callable[..., None]

#: Sentinel for "no bound argument": distinguishes ``action()`` from
#: ``action(None)`` in an entry.
_NO_ARG = object()

#: Priority classes: control actions (migrations, monitor ticks) run
#: before data-plane completions at the same timestamp so a migration
#: decision made "now" affects packets processed "now".
PRIORITY_CONTROL = 0
PRIORITY_DATA = 1

#: An entry as stored in the heap and the lane: ``(time, priority, seq,
#: action_id, arg)``.  Tuple comparison on the first three fields gives
#: the deterministic total order at C speed (seq is unique, so the
#: trailing fields never participate).  ``action_id`` indexes the
#: action table; nothing else is stored anywhere.
_Entry = Tuple[float, int, int, int, object]


def _call(action: Action) -> None:
    """The reserved call action: run a closure carried as the argument."""
    action()


#: Action id of :func:`_call`, seeded first into every action table.
#: :meth:`EventQueue.push` schedules closures as its argument, so they
#: are never interned and the table never grows.
_CALL_ID = 0


class EventQueue:
    """Deterministic scheduler: a heap of id entries plus an arrival lane.

    The engine's run loop and its id-scheduling fast paths read and
    mutate the heap, the lane and the seq counter directly (both
    modules own the scheduler per the simulation-safety lint).
    Slotted for the same reason the engine is: scheduling touches these
    attributes on every event.
    """

    __slots__ = ("_seq", "_heap", "_lane", "_action_table", "_action_ids")

    def __init__(self) -> None:
        # Insertion counter: the last element of every ordering key.
        self._seq = 0
        # Action table: model code registers its recurring callbacks
        # once (at wiring time) and schedules by integer id, so the
        # entry carries everything.  Slot _CALL_ID is reserved for
        # closures pushed without registration.
        self._action_table: List[Action] = [_call]
        self._action_ids: Dict[Action, int] = {}
        #: Min-heap of single schedules.
        self._heap: List[_Entry] = []
        #: Batch-injected entries in *descending* order: the head is
        #: ``_lane[-1]``.  Only ever mutated in place, so the run loop
        #: may hold it in a local across actions.
        self._lane: List[_Entry] = []

    def __len__(self) -> int:
        return len(self._heap) + len(self._lane)

    # -- scheduling --------------------------------------------------------

    def register_action(self, action: Action) -> int:
        """Intern ``action`` in the action table and return its id.

        Model code registers its recurring callbacks once at wiring
        time; :meth:`schedule_id` then carries only the integer.
        Re-registering an equal callable returns the existing id.
        """
        ids = self._action_ids
        action_id = ids.get(action)
        if action_id is None:
            action_id = len(self._action_table)
            self._action_table.append(action)
            ids[action] = action_id
        return action_id

    def rebind_action(self, action_id: int, action: Action) -> None:
        """Repoint a registered action id at a new callable.

        Fault injection wraps data-plane methods *after* wiring;
        rebinding the id makes every already-scheduled and future entry
        carrying it dispatch to the wrapper — the id-based equivalent
        of patching the bound method.
        """
        table = self._action_table
        if not 0 <= action_id < len(table):
            raise SchedulingError(f"unknown action id {action_id}")
        previous = self._action_ids.pop(table[action_id], None)
        if previous is not None and previous != action_id:
            # The old callable also owned a different id; keep that one.
            self._action_ids[table[action_id]] = previous
        table[action_id] = action
        self._action_ids.setdefault(action, action_id)

    def schedule_id(self, time_s: float, action_id: int, priority: int,
                    arg: object = _NO_ARG) -> None:
        """Schedule a pre-registered action: one ``heappush``."""
        if time_s < 0:
            raise SchedulingError(f"cannot schedule at negative time {time_s}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time_s, priority, seq, action_id, arg))

    def schedule_id_many(self, action_id: int, priority: int,
                         items: Iterable[Tuple[float, object]],
                         floor_s: float = 0.0) -> int:
        """Bulk :meth:`schedule_id` into the arrival lane.

        One ``(time_s, arg)`` per event, seqs issued in item order —
        identical ordering semantics to one :meth:`schedule_id` call
        per item.  Items are expected in time order (the injection
        path schedules a run's arrivals that way), but an unsorted
        batch is sorted, and a batch arriving while the lane still
        holds entries (one batch per chain) is merged with them.
        Returns the number of events scheduled; raises if any
        timestamp lies below ``floor_s`` (callers pass the current
        clock), leaving the items before it queued and counted.
        """
        seq = self._seq
        batch: List[_Entry] = []
        append = batch.append
        try:
            for time_s, arg in items:
                if time_s < floor_s:
                    raise SchedulingError(
                        f"cannot schedule at {time_s:.9f}, floor is "
                        f"{floor_s:.9f}")
                append((time_s, priority, seq, action_id, arg))
                seq += 1
        finally:
            # A rejected item leaves the entries before it queued, so
            # the counter must still account for them.
            self._seq = seq
            if batch:
                # Timsort finds the presorted runs (the lane and the
                # reversed batch), so a sorted batch merges in linear
                # time; the lane is only ever mutated in place.
                lane = self._lane
                batch.reverse()
                lane += batch
                lane.sort(reverse=True)
        return len(batch)

    def schedule(self, time_s: float, action: Action, priority: int,
                 arg: object = _NO_ARG) -> None:
        """Schedule a recurring callable, interning it first.

        Convenience wrapper for call sites that have not pre-registered
        their callback; hot paths should register once and use
        :meth:`schedule_id`.
        """
        self.schedule_id(time_s, self.register_action(action), priority, arg)

    def push(self, time_s: float, action: Action,
             priority: int = PRIORITY_DATA) -> None:
        """Schedule the one-off closure ``action`` at ``time_s``.

        The closure rides as the argument of the reserved call id, so
        it is never interned and the action table does not grow.
        """
        self.schedule_id(time_s, _CALL_ID, priority, action)
