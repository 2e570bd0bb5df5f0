"""Bounded FIFO packet queues."""

import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.sim.queues import PacketQueue
from repro.traffic.packet import Packet


def packet(seq=0):
    return Packet(seq=seq, size_bytes=64, arrival_s=0.0)


class TestFifo:
    def test_fifo_order(self):
        queue = PacketQueue(4)
        for i in range(3):
            queue.enqueue(packet(i), now_s=float(i))
        seqs = []
        while (item := queue.dequeue()) is not None:
            seqs.append(item[0].seq)
        assert seqs == [0, 1, 2]

    def test_enqueue_records_time(self):
        queue = PacketQueue(4)
        queue.enqueue(packet(), now_s=1.25)
        _, at = queue.dequeue()
        assert at == 1.25

    def test_dequeue_empty_returns_none(self):
        assert PacketQueue(1).dequeue() is None


class TestDropTail:
    def test_drops_when_full(self):
        queue = PacketQueue(2)
        assert queue.enqueue(packet(0), 0.0)
        assert queue.enqueue(packet(1), 0.0)
        assert not queue.enqueue(packet(2), 0.0)
        assert queue.stats.dropped == 1

    def test_full_flag(self):
        queue = PacketQueue(1)
        assert not queue.full
        queue.enqueue(packet(), 0.0)
        assert queue.full

    def test_drop_rate(self):
        queue = PacketQueue(1)
        queue.enqueue(packet(0), 0.0)
        queue.enqueue(packet(1), 0.0)  # dropped
        assert queue.stats.drop_rate == pytest.approx(0.5)

    def test_drop_rate_of_untouched_queue_is_zero(self):
        assert PacketQueue(1).stats.drop_rate == 0.0


class TestStats:
    def test_peak_depth(self):
        queue = PacketQueue(8)
        for i in range(5):
            queue.enqueue(packet(i), 0.0)
        queue.dequeue()
        queue.dequeue()
        assert queue.stats.peak_depth == 5

    def test_counters(self):
        queue = PacketQueue(8)
        queue.enqueue(packet(0), 0.0)
        queue.enqueue(packet(1), 0.0)
        queue.dequeue()
        assert queue.stats.enqueued == 2
        assert queue.stats.dequeued == 1


class TestDrain:
    def test_drain_returns_all_in_order(self):
        queue = PacketQueue(8)
        for i in range(3):
            queue.enqueue(packet(i), float(i))
        drained = queue.drain()
        assert [p.seq for p, _ in drained] == [0, 1, 2]
        assert [t for _, t in drained] == [0.0, 1.0, 2.0]
        assert len(queue) == 0

    def test_drain_counts_as_dequeued(self):
        queue = PacketQueue(8)
        queue.enqueue(packet(0), 0.0)
        queue.drain()
        assert queue.stats.dequeued == 1


class TestFootprint:
    def test_empty_queue_does_not_preallocate_its_capacity(self):
        # Storage follows occupancy: a CPU-sized queue that holds
        # nothing must not cost capacity-sized slot arrays.
        PacketQueue(8)  # warm any lazily built class state
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            queue = PacketQueue(4096)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(queue) == 0
        assert allocated < 4096


class TestValidation:
    def test_capacity_positive(self):
        with pytest.raises(ConfigurationError):
            PacketQueue(0)
