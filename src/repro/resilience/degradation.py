"""Priority-class admission control: the degradation ladder.

When offered load exceeds what *any* placement can carry — or what the
surviving device can carry after an evacuation — queues grow without
bound unless something gives.  The ladder gives deliberately: traffic
is partitioned into priority classes by a deterministic per-packet
hash, and escalating ladder levels shed the lowest classes at chain
ingress (the NIC's flow table drops them before any NF spends cycles),
keeping utilisation below 1 for the traffic that is admitted.

Shedding happens **before** the byte counter the load monitor reads, so
the planner sees admitted load — the load the chain must actually
carry — while the shedder tracks true offered load from its own
counters.  Shed packets are accounted separately from drops: a shed is
a policy decision (like an NF filtering), a drop is a loss.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.network import ChainNetwork
from ..traffic.packet import Packet


@dataclass(frozen=True)
class PriorityClass:
    """One traffic class: a share of offered load and a shed policy."""

    name: str
    #: Fraction of offered traffic hashed into this class.
    share: float
    #: Protected classes are never shed, whatever the ladder level.
    sheddable: bool = True
    #: Relative SLA damage per unit of this class's traffic shed — the
    #: reliability planner scores a shed action as ``share *
    #: damage_weight``.  Purely a planning weight: the ladder's shed
    #: order stays positional (lowest class first).
    damage_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("priority class name must be non-empty")
        if not (0.0 < self.share <= 1.0):
            raise ConfigurationError("class share must be in (0, 1]")
        if self.damage_weight < 0:
            raise ConfigurationError("damage weight must be >= 0")


#: Highest priority first; the ladder sheds from the end of the tuple.
DEFAULT_PRIORITY_CLASSES: Tuple[PriorityClass, ...] = (
    PriorityClass("high", 0.2, sheddable=False),
    PriorityClass("normal", 0.5),
    PriorityClass("low", 0.3),
)


@dataclass(frozen=True)
class DegradationConfig:
    """Ladder policy knobs."""

    #: Hard cap on the total traffic share the ladder may shed; levels
    #: whose cumulative sheddable share exceeds it are never engaged.
    max_shed_fraction: float = 0.8
    #: Target utilisation headroom: admit at most
    #: ``capacity * (1 - headroom)``.
    headroom: float = 0.05
    #: A level decrease is applied only after the lower level has been
    #: warranted for this long (escalation is immediate).
    dwell_s: float = 0.008
    #: Seed for the deterministic per-packet class hash.
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.max_shed_fraction <= 1.0):
            raise ConfigurationError("max shed fraction must be in [0, 1]")
        if not (0.0 <= self.headroom < 1.0):
            raise ConfigurationError("headroom must be in [0, 1)")
        if self.dwell_s < 0:
            raise ConfigurationError("dwell must be >= 0")


@dataclass
class _ClassCounters:
    """Offered/shed tallies for one class."""

    offered_packets: int = 0
    offered_bytes: int = 0
    shed_packets: int = 0
    shed_bytes: int = 0


class IngressShedder:
    """The ``network.admission`` hook: classify, then admit or shed.

    Classification is a deterministic CRC hash of ``(seed, flow, seq)``
    mapped onto the classes' cumulative shares — the same
    stable-across-processes idiom the packet-filter model uses, so a
    replayed run sheds the exact same packets.
    """

    def __init__(self,
                 classes: Sequence[PriorityClass] = DEFAULT_PRIORITY_CLASSES,
                 seed: int = 0) -> None:
        if not classes:
            raise ConfigurationError("need at least one priority class")
        total = sum(cls.share for cls in classes)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"class shares must sum to 1, got {total}")
        if not any(cls.sheddable for cls in classes):
            raise ConfigurationError("at least one class must be sheddable")
        self.classes = tuple(classes)
        self.seed = seed
        self._level = 0
        #: Class names currently being shed (derived from the level).
        self._shedding: frozenset = frozenset()
        self.counters: Dict[str, _ClassCounters] = {
            cls.name: _ClassCounters() for cls in self.classes}

    # -- level control -------------------------------------------------------

    @property
    def level(self) -> int:
        """Current ladder level (0 = shed nothing)."""
        return self._level

    def max_level(self) -> int:
        """Number of sheddable classes (the deepest possible level)."""
        return sum(1 for cls in self.classes if cls.sheddable)

    def shed_share_at(self, level: int) -> float:
        """Offered-traffic share level ``level`` sheds."""
        victims = self._victims(level)
        return sum(cls.share for cls in self.classes
                   if cls.name in victims)

    def _victims(self, level: int) -> frozenset:
        """Names of the ``level`` lowest-priority sheddable classes."""
        sheddable = [cls.name for cls in self.classes if cls.sheddable]
        return frozenset(sheddable[len(sheddable) - level:]) if level \
            else frozenset()

    def set_level(self, level: int) -> None:
        """Engage ladder level ``level`` (clamped to the valid range)."""
        level = max(0, min(level, self.max_level()))
        self._level = level
        self._shedding = self._victims(level)

    # -- the admission hook ----------------------------------------------------

    def install(self, network: ChainNetwork) -> None:
        """Become the network's ingress admission hook."""
        network.admission = self.admit

    def classify(self, packet: Packet) -> PriorityClass:
        """Deterministically map one packet to its priority class."""
        digest = zlib.crc32(
            f"{self.seed}:{packet.flow_id}:{packet.seq}".encode())
        token = digest / 0x1_0000_0000
        cumulative = 0.0
        for cls in self.classes:
            cumulative += cls.share
            if token < cumulative:
                return cls
        return self.classes[-1]

    def admit(self, packet: Packet) -> bool:
        """The hook: count the packet, shed it if its class is engaged."""
        cls = self.classify(packet)
        tally = self.counters[cls.name]
        tally.offered_packets += 1
        tally.offered_bytes += packet.size_bytes
        if cls.name in self._shedding:
            tally.shed_packets += 1
            tally.shed_bytes += packet.size_bytes
            return False
        return True

    # -- accounting -----------------------------------------------------------

    @property
    def offered_bytes(self) -> int:
        """True offered bytes (admitted + shed) seen by the hook."""
        return sum(c.offered_bytes for c in self.counters.values())

    @property
    def shed_packets(self) -> int:
        """Total packets shed across all classes."""
        return sum(c.shed_packets for c in self.counters.values())

    def shed_fraction(self) -> float:
        """Fraction of offered packets that were shed."""
        offered = sum(c.offered_packets for c in self.counters.values())
        return (self.shed_packets / offered) if offered else 0.0

    def protected_shed_packets(self) -> int:
        """Packets shed from non-sheddable classes (must stay 0)."""
        return sum(self.counters[cls.name].shed_packets
                   for cls in self.classes if not cls.sheddable)


class DegradationLadder:
    """Chooses the shedder's level from offered load vs. capacity.

    Escalation is immediate (an unbounded queue is the worst outcome);
    de-escalation waits out ``dwell_s`` of sustained lower need so a
    noisy load estimate cannot flap the ladder.
    """

    def __init__(self, shedder: IngressShedder,
                 config: DegradationConfig = DegradationConfig()) -> None:
        self.shedder = shedder
        self.config = config
        #: Time spent at a non-zero ladder level.
        self.degraded_time_s = 0.0
        #: (at_s, level) decision trail for reports.
        self.level_changes: List[Tuple[float, int]] = []
        self._last_update_s: Optional[float] = None
        self._lower_since: Optional[float] = None

    def required_level(self, offered_bps: float,
                       capacity_bps: float) -> int:
        """Smallest admissible level keeping admitted load under capacity."""
        if offered_bps <= 0:
            return 0
        usable = capacity_bps * (1.0 - self.config.headroom)
        needed_shed = 1.0 - usable / offered_bps
        if needed_shed <= 0:
            return 0
        for level in range(1, self.shedder.max_level() + 1):
            share = self.shedder.shed_share_at(level)
            if share - self.config.max_shed_fraction > 1e-9:
                # This level would shed past the configured cap: stay at
                # the deepest admissible one even if it under-sheds.
                return level - 1
            if share >= needed_shed:
                return level
        return self.shedder.max_level()

    def update(self, offered_bps: float, capacity_bps: float,
               now_s: float) -> int:
        """One control decision; returns the level now engaged."""
        current = self.shedder.level
        if self._last_update_s is not None and current > 0:
            self.degraded_time_s += now_s - self._last_update_s
        self._last_update_s = now_s
        target = self.required_level(offered_bps, capacity_bps)
        if target > current:
            self._lower_since = None
            self._engage(target, now_s)
        elif target < current:
            if self._lower_since is None:
                self._lower_since = now_s
            elif now_s - self._lower_since >= self.config.dwell_s:
                self._lower_since = None
                self._engage(target, now_s)
        else:
            self._lower_since = None
        return self.shedder.level

    def _engage(self, level: int, now_s: float) -> None:
        self.shedder.set_level(level)
        self.level_changes.append((now_s, level))
