"""Bounded FIFO packet queues with drop-tail accounting.

Every NF instance owns one ingress queue.  The queue tracks occupancy,
drops, and per-packet enqueue timestamps so the latency decomposition
can attribute waiting time separately from service time.

Storage is an array-backed ring: two preallocated slot arrays (packet,
enqueue time) indexed by a wrapping head cursor, so steady-state
enqueue/dequeue touches fixed slots instead of allocating per-packet
nodes.  Accounting (drop-tail, enqueued/dequeued/dropped/peak counters)
is identical to the previous deque-backed implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..traffic.packet import Packet


@dataclass
class QueueStats:
    """Counters for one FIFO queue."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    peak_depth: int = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets dropped at this queue."""
        offered = self.enqueued + self.dropped
        return self.dropped / offered if offered else 0.0


class PacketQueue:
    """A drop-tail FIFO of (packet, enqueue_time) with bounded depth."""

    def __init__(self, capacity_packets: int, name: str = "queue") -> None:
        if capacity_packets <= 0:
            raise ConfigurationError("queue capacity must be positive")
        self.capacity_packets = capacity_packets
        self.name = name
        # Ring storage: fixed-size parallel slot arrays plus a head
        # cursor; occupied slots are [head, head + size) modulo capacity.
        self._packets: List[Optional[Packet]] = [None] * capacity_packets
        self._times: List[float] = [0.0] * capacity_packets
        self._head = 0
        self._size = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        """Whether the next enqueue would be dropped."""
        return self._size >= self.capacity_packets

    def enqueue(self, packet: Packet, now_s: float) -> bool:
        """Append a packet; returns False (and counts a drop) when full."""
        size = self._size
        capacity = self.capacity_packets
        stats = self.stats
        if size >= capacity:
            stats.dropped += 1
            return False
        tail = self._head + size
        if tail >= capacity:
            tail -= capacity
        self._packets[tail] = packet
        self._times[tail] = now_s
        size += 1
        self._size = size
        stats.enqueued += 1
        if size > stats.peak_depth:
            stats.peak_depth = size
        return True

    def dequeue(self) -> Optional[Tuple[Packet, float]]:
        """Pop the oldest (packet, enqueue_time), or None when empty."""
        if not self._size:
            return None
        head = self._head
        item = (self._packets[head], self._times[head])
        self._packets[head] = None
        head += 1
        self._head = 0 if head >= self.capacity_packets else head
        self._size -= 1
        self.stats.dequeued += 1
        return item

    def drain(self):
        """Remove and return all queued (packet, enqueue_time) pairs.

        Used by the migration executor when it moves an NF: queued
        packets are carried to the buffer, not lost (OpenNF loss-free
        semantics).
        """
        capacity = self.capacity_packets
        head = self._head
        items = []
        for offset in range(self._size):
            slot = head + offset
            if slot >= capacity:
                slot -= capacity
            items.append((self._packets[slot], self._times[slot]))
            self._packets[slot] = None
        self._head = 0
        self._size = 0
        self.stats.dequeued += len(items)
        return items

    def clear(self) -> None:
        """Discard every queued packet without counting it anywhere.

        The end of a run (:meth:`repro.sim.runner.SimulationRunner.release`):
        the packets go, the stats stay for inspection.
        """
        self._packets[:] = [None] * self.capacity_packets
        self._head = 0
        self._size = 0
