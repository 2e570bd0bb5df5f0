"""Event primitives for the discrete-event engine.

Events are ``(time, priority, seq, action_id, arg)`` calendar entries
ordered by time, then priority, then insertion order, so simultaneous
events execute deterministically.  ``action_id`` indexes an action
table of callables taking zero arguments or one pre-bound ``arg``; the
engine knows nothing about packets or NFs, which keeps it reusable for
the migration and telemetry machinery.

There is one entry form.  Model code registers its recurring callbacks
once and schedules them by id; a one-off closure (``Engine.at/after``)
rides as the ``arg`` of the reserved :data:`_CALL_ID`, whose callable
just calls its argument.  No per-event object exists beyond the entry
tuple, and nothing is cancellable.

Scheduling is a calendar queue: entries hash into fixed-width time
buckets keyed by ``int(time * inv_width)``.  Pending buckets sit
unsorted in a dict behind a small heap of bucket ids; only the
*current* bucket is sorted, and it is consumed through a position
cursor so a pop is an index increment, not a heap sift.  Same-bucket
pushes bisect-insert into the unconsumed tail; pushes into an earlier
bucket preempt the current one on the next pop (its tail is demoted
back to the calendar).  Bucket ids are monotone in time and the
in-bucket sort key is the exact legacy heap order — ``(time, priority,
seq)`` compared as a tuple — so the refactor is order-identical to the
old per-``Event``-object min-heap.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, List, Tuple

from ..errors import SchedulingError

Action = Callable[..., None]

#: Sentinel for "no bound argument": distinguishes ``action()`` from
#: ``action(None)`` in a calendar entry.
_NO_ARG = object()

#: Priority classes: control actions (migrations, monitor ticks) run
#: before data-plane completions at the same timestamp so a migration
#: decision made "now" affects packets processed "now".
PRIORITY_CONTROL = 0
PRIORITY_DATA = 1

#: Calendar bucket width.  Chosen against the packet-mode workloads:
#: service times are O(100 ns)..O(10 us), so 32 us buckets hold tens to
#: a few hundred events — wide enough that the bucket heap stays tiny,
#: narrow enough that in-bucket sorts stay short.  Correctness does not
#: depend on the value, only constant factors do.
DEFAULT_BUCKET_WIDTH_S = 32e-6

#: An entry as stored in calendar buckets: ``(time, priority, seq,
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
    """Deterministic scheduler: calendar-queue ordering of id entries.

    The engine's run loop reads the action table and the current bucket
    directly (both modules own the scheduler per the simulation-safety
    lint); every *mutation* of heap structure lives here.  Slotted for
    the same reason the engine is: scheduling touches half these
    attributes per event.
    """

    __slots__ = ("_seq", "_count", "_action_table", "_action_ids",
                 "_inv_width", "_buckets", "_bucket_heap", "_current",
                 "_pos", "_current_id", "_epoch")

    def __init__(self, bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S) -> None:
        if bucket_width_s <= 0:
            raise SchedulingError(
                f"bucket width must be positive, got {bucket_width_s}")
        # Plain int rather than itertools.count(): the counter is part
        # of the deterministic simulation state a checkpoint captures,
        # so it must be readable and settable.
        self._seq = 0
        self._count = 0
        # Action table: model code registers its recurring callbacks
        # once (at wiring time) and schedules by integer id, so the
        # calendar entry carries everything.  Slot _CALL_ID is reserved
        # for closures pushed without registration.
        self._action_table: List[Action] = [_call]
        self._action_ids: Dict[Action, int] = {}
        # Calendar: dict buckets of unsorted entries behind a heap of
        # their ids, plus the current bucket (sorted, cursor-consumed).
        self._inv_width = 1.0 / bucket_width_s
        self._buckets: Dict[int, List[_Entry]] = {}
        self._bucket_heap: List[int] = []
        self._current: List[_Entry] = []
        self._pos = 0
        self._current_id = -1
        #: Bumped whenever the current bucket is replaced; lets the
        #: engine's inlined drain loop detect that its local view of
        #: ``_current``/``_pos`` went stale mid-action.
        self._epoch = 0

    def __len__(self) -> int:
        return self._count

    @property
    def seq_counter(self) -> int:
        """The seq number the next pushed event will receive."""
        return self._seq

    def set_seq_counter(self, value: int) -> None:
        """Restore the insertion counter (checkpoint restore only).

        Rewinding below an already-issued seq would let two live events
        share an ordering key, so only forward moves are allowed.
        """
        if value < self._seq:
            raise SchedulingError(
                f"cannot rewind event seq counter from {self._seq} "
                f"to {value}")
        self._seq = value

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
        """Hot path: schedule a pre-registered action.

        The calendar entry carries the whole event.
        """
        if time_s < 0:
            raise SchedulingError(f"cannot schedule at negative time {time_s}")
        seq = self._seq
        self._seq = seq + 1
        entry = (time_s, priority, seq, action_id, arg)
        bucket_id = int(time_s * self._inv_width)
        if bucket_id == self._current_id:
            # Into the unconsumed tail of the current sorted bucket.
            insort(self._current, entry, self._pos)
        else:
            bucket = self._buckets.get(bucket_id)
            if bucket is None:
                self._buckets[bucket_id] = [entry]
                heappush(self._bucket_heap, bucket_id)
            else:
                bucket.append(entry)
        self._count += 1

    def _new_bucket(self, bucket_id: int, entry: _Entry) -> None:
        """Open a fresh calendar bucket (heap mutation stays here)."""
        self._buckets[bucket_id] = [entry]
        heappush(self._bucket_heap, bucket_id)

    def schedule_id_many(self, action_id: int, priority: int,
                         items: Iterable[Tuple[float, object]],
                         floor_s: float = 0.0) -> int:
        """Bulk :meth:`schedule_id`: one ``(time_s, arg)`` per event.

        The batch path behind vectorized arrival injection — identical
        ordering semantics to one :meth:`schedule_id` call per item,
        amortising the per-call overhead across the whole epoch.
        Returns the number of events scheduled; raises if any timestamp
        lies below ``floor_s`` (callers pass the current clock), leaving
        the items before it queued and counted.
        """
        seq = self._seq
        count = 0
        buckets = self._buckets
        inv_width = self._inv_width
        current_id = self._current_id
        try:
            for time_s, arg in items:
                if time_s < floor_s:
                    raise SchedulingError(
                        f"cannot schedule at {time_s:.9f}, floor is "
                        f"{floor_s:.9f}")
                entry = (time_s, priority, seq, action_id, arg)
                bucket_id = int(time_s * inv_width)
                if bucket_id == current_id:
                    insort(self._current, entry, self._pos)
                else:
                    bucket = buckets.get(bucket_id)
                    if bucket is None:
                        self._new_bucket(bucket_id, entry)
                    else:
                        bucket.append(entry)
                seq += 1
                count += 1
        finally:
            # A rejected item leaves the entries before it queued, so
            # the counters must still account for them.
            self._seq = seq
            self._count += count
        return count

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

    # -- draining ----------------------------------------------------------

    def _advance(self) -> bool:
        """Make the earliest pending bucket current; False when none.

        Demotes the unconsumed tail of the current bucket back to the
        calendar first when a push preempted it (landed in an earlier
        bucket).  All heap mutation for bucket ordering happens here.
        """
        current = self._current
        pos = self._pos
        bucket_heap = self._bucket_heap
        if pos < len(current):
            if not bucket_heap or bucket_heap[0] > self._current_id:
                return True  # current bucket is still the earliest
            tail = current[pos:]
            bucket = self._buckets.get(self._current_id)
            if bucket is None:
                self._buckets[self._current_id] = tail
                heappush(bucket_heap, self._current_id)
            else:
                bucket.extend(tail)
        if not bucket_heap:
            self._current = []
            self._pos = 0
            self._current_id = -1
            self._epoch += 1
            return False
        bucket_id = heappop(bucket_heap)
        loaded = self._buckets.pop(bucket_id)
        loaded.sort()
        self._current = loaded
        self._pos = 0
        self._current_id = bucket_id
        self._epoch += 1
        return True

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Deterministic queue state for :mod:`repro.checkpoint`.

        The calendar contents are deliberately absent: actions
        are closures over live model objects, so checkpoints rebuild
        them by replaying the seeded scenario (docs/checkpointing.md).
        Only the counters that must survive verbatim are captured.
        """
        return {
            "seq_counter": self._seq,
            "pending": self._count,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Re-impose checkpointed queue counters after replay."""
        self.set_seq_counter(int(state["seq_counter"]))
