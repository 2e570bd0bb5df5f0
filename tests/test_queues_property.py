"""Property test: ``PacketQueue`` against a plain-list reference FIFO.

Random sequences of ``enqueue``/``dequeue``/``drain``/``clear`` on
queues of capacity 1-8 must give the same return values, length,
``full`` flag and four ``QueueStats`` counters as a list-based model
of a drop-tail FIFO.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim.queues import PacketQueue  # noqa: E402
from repro.traffic.packet import Packet  # noqa: E402

_OPS = st.lists(st.sampled_from(
    ["enqueue", "enqueue", "enqueue", "dequeue", "dequeue", "drain",
     "clear"]), max_size=60)


class _Reference:
    """A drop-tail FIFO on a Python list, counters kept by hand."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items = []
        self.enqueued = self.dequeued = self.dropped = self.peak = 0

    def enqueue(self, packet, now_s):
        if len(self.items) >= self.capacity:
            self.dropped += 1
            return False
        self.items.append((packet, now_s))
        self.enqueued += 1
        self.peak = max(self.peak, len(self.items))
        return True

    def dequeue(self):
        if not self.items:
            return None
        self.dequeued += 1
        return self.items.pop(0)

    def drain(self):
        items, self.items = self.items, []
        self.dequeued += len(items)
        return items

    def clear(self):
        self.items = []


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8), ops=_OPS)
def test_queue_matches_list_reference(capacity, ops):
    queue = PacketQueue(capacity)
    reference = _Reference(capacity)
    for step, op in enumerate(ops):
        if op == "enqueue":
            packet = Packet(seq=step, size_bytes=64, arrival_s=0.0)
            now_s = step * 1e-6
            got = queue.enqueue(packet, now_s)
            want = reference.enqueue(packet, now_s)
        elif op == "clear":
            got = queue.clear()
            want = reference.clear()
        else:
            got = getattr(queue, op)()
            want = getattr(reference, op)()
        assert got == want
        assert len(queue) == len(reference.items)
        assert queue.full == (len(reference.items) >= capacity)
        stats = queue.stats
        assert (stats.enqueued, stats.dequeued, stats.dropped,
                stats.peak_depth) == (reference.enqueued, reference.dequeued,
                                      reference.dropped, reference.peak)
