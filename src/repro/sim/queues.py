"""Bounded FIFO packet queues with drop-tail accounting.

Every NF instance owns one ingress queue.  The queue tracks occupancy,
drops, and per-packet enqueue timestamps so the latency decomposition
can attribute waiting time separately from service time.

Storage is two ``collections.deque``s (packets, enqueue times), so a
queue costs what it holds, not what it could hold: an empty 4096-slot
queue is about 2 KB.  The capacity bound is enforced by drop-tail
accounting, not by the storage.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

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
        self._packets: Deque[Packet] = deque()
        self._times: Deque[float] = deque()
        # Occupancy, kept beside the deques so the station's hot path
        # reads one attribute instead of calling len().
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
        stats = self.stats
        if size >= self.capacity_packets:
            stats.dropped += 1
            return False
        self._packets.append(packet)
        self._times.append(now_s)
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
        self._size -= 1
        self.stats.dequeued += 1
        return self._packets.popleft(), self._times.popleft()

    def drain(self) -> List[Tuple[Packet, float]]:
        """Remove and return all queued (packet, enqueue_time) pairs.

        Used by the migration executor when it moves an NF: queued
        packets are carried to the buffer, not lost (OpenNF loss-free
        semantics).
        """
        items = list(zip(self._packets, self._times))
        self.clear()
        self.stats.dequeued += len(items)
        return items

    def clear(self) -> None:
        """Discard every queued packet without counting it anywhere.

        The end of a run (:meth:`repro.sim.runner.SimulationRunner.release`):
        the packets go, the stats stay for inspection.
        """
        self._packets.clear()
        self._times.clear()
        self._size = 0
