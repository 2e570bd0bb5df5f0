"""Simulated NF instance: a single-server FIFO queueing station.

Each NF in the chain is one station: a bounded ingress queue feeding a
server whose per-packet service time comes from the hosting device
(``device.service_time`` — capacity-derived work stretched by the
device's processor-sharing slowdown, plus the NF's fixed pipeline
latency).

Stations support **pausing** for migrations: while paused, arriving
packets accumulate in an unbounded side buffer (OpenNF's loss-free
buffering), and :meth:`resume` re-admits them in order on the new
device.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..chain.nf import NFProfile
from ..devices.device import Device
from ..errors import MigrationError, SimulationError
from ..traffic.packet import Packet
from .engine import Engine
from .latency import add_latency
from .queues import PacketQueue

def filters_out(profile: NFProfile, packet: Packet) -> bool:
    """Whether the NF consumes ``packet`` (a firewall block, not a loss).

    Decided by a deterministic per-(NF, packet) uniform variate in
    [0, 1) against the NF's pass rate: CRC-based, so stable across
    processes and runs (unlike the built-in ``hash``, which is salted
    per process).  Callers skip the check for NFs whose pass rate is 1.
    """
    token = zlib.crc32(f"{profile.name}:{packet.seq}".encode()) / 0x1_0000_0000
    return token >= profile.pass_rate


class NFStation:
    """One NF's queue + server, bound to whichever device hosts it."""

    def __init__(self, profile: NFProfile, device: Device,
                 engine: Engine,
                 on_dropped: Optional[
                     Callable[[Packet, str, float], None]] = None) -> None:
        """A station serving ``profile`` on ``device``.

        It serves nothing until :meth:`complete_with` has given it the
        action that moves a finished packet on.
        """
        self.profile = profile
        self.device = device
        self.engine = engine
        #: Called when a replayed pause-buffer packet overflows the new
        #: queue — the network's accounting path for drops the normal
        #: accept() return value cannot report.
        self.on_dropped = on_dropped
        self.queue = PacketQueue(device.queue_capacity_packets,
                                 name=f"{profile.name}@{device.name}")
        self._busy = False
        self._paused = False
        #: True while a paced resume is replaying the pause buffer: the
        #: station still buffers new arrivals (order preservation) but
        #: the server is allowed to run on already-readmitted packets.
        self._draining = False
        # A deque: a paced resume replays it from the head, one packet
        # per pacing interval.
        self._pause_buffer: Deque[Tuple[Packet, float]] = deque()
        #: Packets this station has finished serving (filtered ones
        #: included) — the resilience watchdog's progress signal.
        self.served_packets: int = 0
        # Pre-registered engine action ids for the two completions every
        # served packet schedules (see Engine.register_action): the
        # server frees, and the packet leaves (set by complete_with).
        self._free_server_id = engine.register_action(self._free_server)
        self._emit_id: int
        self._call_after_pair = engine.call_after_id_pair

    # -- state inspection ---------------------------------------------------

    @property
    def busy(self) -> bool:
        """Whether the server is mid-service."""
        return self._busy

    @property
    def paused(self) -> bool:
        """Whether the station is paused for migration."""
        return self._paused

    @property
    def buffered(self) -> int:
        """Packets held in the migration pause buffer."""
        return len(self._pause_buffer)

    # -- completion ----------------------------------------------------------

    def complete_with(self, action: Callable[[Packet], None]) -> None:
        """Run ``action(packet)`` when a packet finishes service here.

        The action owns the packet's exit: it counts
        :attr:`served_packets`, applies the NF's filter (see
        :func:`filters_out`) and moves the packet on.  One action per
        station makes a completion one frame.
        """
        self._emit_id = self.engine.register_action(action)

    # -- data path -----------------------------------------------------------

    def accept(self, packet: Packet) -> bool:
        """Packet arrives at this NF now.  Returns False when dropped."""
        if self._paused:
            # Loss-free migration: buffer instead of dropping.
            self._pause_buffer.append((packet, self.engine.now_s))
            return True
        queue = self.queue
        if not self._busy and not queue._size and not self.device._failed:
            # Idle fast path: the packet would be enqueued and then
            # immediately dequeued by the service start it triggers.
            # Fuse the two, keeping the queue counters exactly as the
            # enqueue/dequeue pair would have left them (zero waiting
            # time contributes nothing to the queueing component).
            stats = queue.stats
            stats.enqueued += 1
            stats.dequeued += 1
            if not stats.peak_depth:
                stats.peak_depth = 1
            rate = self.device._rate_cache.get(self.profile.name)
            if rate is not None:
                occupancy = (packet.size_bytes * 8.0) / rate
            else:
                occupancy = self.device.occupancy_time(self.profile,
                                                       packet.size_bytes)
            delay = occupancy + self.profile.base_latency_s
            if delay < 0.0:
                raise SimulationError(
                    f"negative latency contribution for packet "
                    f"{packet.seq} at station {self.profile.name}")
            packet.processing += delay
            self._busy = True
            self._call_after_pair(occupancy, self._free_server_id,
                                  delay, self._emit_id, packet)
            return True
        if not queue.enqueue(packet, self.engine.now_s):
            packet.dropped_at = self.profile.name
            return False
        # Not paused here (handled above), so the only start-service
        # gate left is a busy server — checked inline to skip the call.
        if not self._busy:
            self._try_start_service()
        return True

    def _try_start_service(self) -> None:
        if self._busy or (self._paused and not self._draining):
            return
        if self.device._failed:
            # A dead device serves nothing: packets sit queued until the
            # recovery planner pauses the station, rebinds it to a
            # survivor, and resumes it there (or abandons it and drains
            # the queue into the drop accounting).
            return
        item = self.queue.dequeue()
        if item is None:
            return
        packet, enqueued_at = item
        engine = self.engine
        waited = engine.now_s - enqueued_at
        # Occupancy gates throughput (the server frees after it); the
        # NF's fixed pipeline latency delays the packet further without
        # blocking the next one — NFs are pipelined (see Device docs).
        # The effective-rate cache is peeked directly (the device owns
        # and invalidates it); only a cache miss pays the method call.
        rate = self.device._rate_cache.get(self.profile.name)
        if rate is not None:
            occupancy = (packet.size_bytes * 8.0) / rate
        else:
            occupancy = self.device.occupancy_time(self.profile,
                                                   packet.size_bytes)
        delay = occupancy + self.profile.base_latency_s
        if waited < 0.0 or delay < 0.0:
            raise SimulationError(
                f"negative latency contribution for packet {packet.seq} "
                f"at station {self.profile.name}")
        packet.queueing += waited
        packet.processing += delay
        self._busy = True
        self._call_after_pair(occupancy, self._free_server_id,
                              delay, self._emit_id, packet)

    def _free_server(self) -> None:
        if not self._busy:
            raise SimulationError(
                f"server-free fired on idle station {self.profile.name}")
        self._busy = False
        # An empty queue makes _try_start_service a no-op; the length
        # gate skips the call (and its futile dequeue) on the common
        # uncongested cycle.
        if self.queue._size:
            self._try_start_service()

    # -- migration support ----------------------------------------------------

    def pause(self) -> List[Tuple[Packet, float]]:
        """Stop admitting packets; return queued work for the move.

        The in-flight packet (if any) finishes on the old device — real
        migrations drain the pipeline before moving state.  Queued
        packets are handed back so the executor can re-buffer them.
        """
        if self._paused:
            raise MigrationError(f"station {self.profile.name} already paused")
        self._paused = True
        drained = self.queue.drain()
        self._pause_buffer.extendleft(reversed(drained))
        return drained

    def rebind(self, device: Device) -> None:
        """Attach the station to its new hosting device (while paused)."""
        if not self._paused:
            raise MigrationError(
                f"station {self.profile.name} must be paused to rebind")
        if self._busy:
            raise MigrationError(
                f"station {self.profile.name} still serving; drain first")
        self.device = device
        # A new queue bound to the new device's capacity; stats of the
        # old queue remain with the old object for post-run inspection.
        self.queue = PacketQueue(device.queue_capacity_packets,
                                 name=f"{self.profile.name}@{device.name}")

    def resume(self, paced_rate_bps: Optional[float] = None) -> None:
        """Re-admit buffered packets in arrival order and restart service.

        With ``paced_rate_bps`` unset, the whole buffer re-enqueues
        instantly — which is what an unpaced OpenNF replay does, and
        which can overflow *downstream* queues after a long pause (the
        FPGA-reconfiguration case).  A paced resume spaces the replayed
        packets at the given bit rate, trading a slightly longer
        transient for loss-freedom end to end.
        """
        if not self._paused:
            raise MigrationError(f"station {self.profile.name} is not paused")
        if paced_rate_bps is not None and paced_rate_bps <= 0:
            raise MigrationError("paced replay rate must be positive")
        if paced_rate_bps is None:
            self._paused = False
            buffered, self._pause_buffer = self._pause_buffer, deque()
            for packet, buffered_at in buffered:
                self._readmit(packet, buffered_at)
            self._try_start_service()
        else:
            # Stay in buffering mode (new arrivals keep queueing behind
            # the replayed ones, preserving order) and drain the buffer
            # one packet per pacing interval until it is empty.
            self._draining = True
            self._drain_tick(paced_rate_bps)

    def _drain_tick(self, paced_rate_bps: float) -> None:
        if not self._pause_buffer:
            self._paused = False
            self._draining = False
            self._try_start_service()
            return
        packet, buffered_at = self._pause_buffer.popleft()
        self._readmit(packet, buffered_at)
        self.engine.after((packet.size_bytes * 8.0) / paced_rate_bps,
                          lambda: self._drain_tick(paced_rate_bps))

    def release(self) -> None:
        """Let go of every packet held here: queue and pause buffer.

        The end of a run (:meth:`repro.sim.runner.SimulationRunner.release`);
        the station's counters and state flags stay for inspection.
        """
        self.queue.clear()
        self._pause_buffer.clear()

    def _readmit(self, packet: Packet, buffered_at: float) -> None:
        """Move one packet from the migration buffer into the queue."""
        now = self.engine.now_s
        # Waiting in the migration buffer is queueing time.
        add_latency(packet, "queueing", now - buffered_at)
        if not self.queue.enqueue(packet, now):
            packet.dropped_at = self.profile.name
            if self.on_dropped is not None:
                self.on_dropped(packet, self.profile.name, now)
            return
        self._try_start_service()
