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

Every pending entry lives in one ``heapq`` min-heap.  A whole run's
arrivals enter as a **stream** (:meth:`EventQueue.schedule_stream`): a
time-ordered iterable consumed lazily, which keeps exactly one entry in
the heap at a time.  Its entries carry the reserved
:data:`_STREAM_ID`, whose callable pushes the stream's next item and
then runs the stream's action on the current one.  All entries of a
stream share the seq drawn when it was scheduled, so every comparison
with another entry comes out as if each item had drawn its own seq in
item order: earlier schedules first, then the stream, then later
schedules.  Seqs stay unique among *pending* entries, which is all the
heap needs: comparisons never reach the trailing fields.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

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

#: An entry as stored in the heap: ``(time, priority, seq, action_id,
#: arg)``.  Tuple comparison on the first three fields gives the
#: deterministic total order at C speed (seq is unique among pending
#: entries, so the trailing fields never participate).  ``action_id``
#: indexes the action table; nothing else is stored anywhere.
_Entry = Tuple[float, int, int, int, object]


def _call(action: Action) -> None:
    """The reserved call action: run a closure carried as the argument."""
    action()


#: Action id of :func:`_call`, seeded first into every action table.
#: :meth:`EventQueue.push` schedules closures as its argument, so they
#: are never interned and the table never grows.
_CALL_ID = 0

#: Action id of :meth:`EventQueue._run_stream`, seeded second: a
#: stream's one pending entry carries it, with the stream as argument.
_STREAM_ID = 1


class _Stream:
    """A lazily consumed run of ``(time_s, arg)`` items for one action.

    ``time_s`` and ``arg`` are the item its pending entry stands for.
    Before the first item is drawn they are the floor no item may
    precede and ``_NO_ARG``.
    """

    __slots__ = ("items", "action_id", "priority", "seq", "time_s", "arg")

    def __init__(self, items: Iterator[Tuple[float, object]],
                 action_id: int, priority: int, seq: int,
                 floor_s: float) -> None:
        self.items = items
        self.action_id = action_id
        self.priority = priority
        self.seq = seq
        self.time_s = floor_s
        self.arg: object = _NO_ARG


class EventQueue:
    """Deterministic scheduler: one heap of id entries.

    The engine's run loop and its id-scheduling fast paths read and
    mutate the heap and the seq counter directly (both modules own the
    scheduler per the simulation-safety lint).  Slotted for the same
    reason the engine is: scheduling touches these attributes on every
    event.
    """

    __slots__ = ("_seq", "_heap", "_action_table", "_action_ids")

    def __init__(self) -> None:
        # Insertion counter: the last element of every ordering key.
        self._seq = 0
        # Action table: model code registers its recurring callbacks
        # once (at wiring time) and schedules by integer id, so the
        # entry carries everything.  Slots _CALL_ID and _STREAM_ID are
        # reserved for closures pushed without registration and for
        # streams.
        self._action_table: List[Action] = [_call, self._run_stream]
        self._action_ids: Dict[Action, int] = {}
        #: Min-heap of every pending entry, one per live stream.
        self._heap: List[_Entry] = []

    def __len__(self) -> int:
        return len(self._heap)

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

    def schedule_stream(self, action_id: int, priority: int,
                        items: Iterable[Tuple[float, object]],
                        floor_s: float = 0.0) -> None:
        """Schedule ``action(arg)`` for every ``(time_s, arg)`` item, lazily.

        Items must come in time order, none below ``floor_s`` (callers
        pass the current clock).  The first item is drawn now and each
        next one as its predecessor runs, so the stream keeps exactly
        one pending entry; an item out of order raises
        :class:`SchedulingError` when it is drawn.  Ordering is that of
        one :meth:`schedule_id` per item, all issued now.
        """
        stream = _Stream(iter(items), action_id, priority, self._seq,
                         floor_s)
        self._seq += 1
        # The stream has no current item yet: this draws the first one
        # and runs nothing.
        self._run_stream(stream)

    def _run_stream(self, stream: _Stream) -> None:
        """The stream action: queue the next item, then run this one."""
        arg = stream.arg
        item = next(stream.items, None)
        if item is not None:
            time_s, stream.arg = item
            if time_s < stream.time_s:
                raise SchedulingError(
                    f"cannot schedule stream item at {time_s:.9f} "
                    f"before {stream.time_s:.9f}")
            stream.time_s = time_s
            heappush(self._heap, (time_s, stream.priority, stream.seq,
                                  _STREAM_ID, stream))
        if arg is not _NO_ARG:
            self._action_table[stream.action_id](arg)

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
