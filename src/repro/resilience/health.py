"""Per-entity health state machine: healthy -> suspect -> failed -> recovering.

Detection is **progress-based**, not telemetry-based: an entity is
stalled when its own progress counter (packets served by a station, or
by every station a device hosts) stays flat while a *reference* counter
(work offered upstream) keeps advancing.  Both counters are live
simulation state, so a frozen telemetry sample — the monitor's load
estimate during a dropout — cannot mask a crash from the watchdog; the
stale-telemetry failure mode affects *planning*, never *detection*.

Watchdog thresholds carry a small per-entity jitter derived from
``crc32(seed:entity)`` — deterministic across runs and processes (the
same idiom as packet filtering in :mod:`repro.sim.nfinstance`), so
replay stays bit-exact while entities still avoid transitioning in
lock-step.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigurationError


class HealthState(enum.Enum):
    """Watchdog verdict for one device or NF."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    FAILED = "failed"
    RECOVERING = "recovering"


@dataclass(frozen=True)
class HealthConfig:
    """Watchdog timing knobs."""

    #: Stall duration before a healthy entity becomes suspect.
    suspect_after_s: float = 0.004
    #: Stall duration before a suspect entity is declared failed.
    failed_after_s: float = 0.008
    #: Sustained-progress dwell before a recovering entity is healthy
    #: again (guards against declaring recovery on one lucky packet).
    recover_confirm_s: float = 0.004
    #: Minimum reference-counter advance before a flat progress counter
    #: counts as a stall (below this there was nothing to do).
    min_reference_delta: int = 1
    #: Per-entity threshold jitter as a fraction (0 disables).
    watchdog_jitter_frac: float = 0.1
    #: Seed for the deterministic per-entity jitter.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.suspect_after_s <= 0 or self.recover_confirm_s <= 0:
            raise ConfigurationError("watchdog windows must be positive")
        if self.failed_after_s <= self.suspect_after_s:
            raise ConfigurationError(
                "failed_after_s must exceed suspect_after_s")
        if self.min_reference_delta < 1:
            raise ConfigurationError("min reference delta must be >= 1")
        if not (0.0 <= self.watchdog_jitter_frac < 1.0):
            raise ConfigurationError("jitter fraction must be in [0, 1)")


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state change."""

    entity: str
    previous: HealthState
    state: HealthState
    at_s: float
    reason: str


@dataclass
class _Watch:
    """Mutable per-entity watchdog bookkeeping."""

    state: HealthState = HealthState.HEALTHY
    last_progress: int = 0
    #: Reference counter value when progress last advanced (or at first
    #: observation) — stall depth is measured against it.
    reference_mark: int = 0
    #: When the current stall was first observed; ``None`` while making
    #: progress (or while exempt).
    stall_since: Optional[float] = None
    #: When the current recovery-confirmation dwell started.
    recover_since: Optional[float] = None
    seen: bool = False


class HealthTracker:
    """Drives one watchdog per observed entity and records transitions."""

    def __init__(self, config: HealthConfig = HealthConfig()) -> None:
        self.config = config
        self._watches: Dict[str, _Watch] = {}
        self.transitions: List[HealthTransition] = []

    # -- deterministic jitter ------------------------------------------------

    def _jitter(self, entity: str) -> float:
        """Per-entity threshold scale in ``[1 - j, 1 + j)``."""
        frac = self.config.watchdog_jitter_frac
        if not frac:
            return 1.0
        digest = zlib.crc32(f"{self.config.seed}:{entity}".encode())
        return 1.0 + frac * (2.0 * (digest / 0x1_0000_0000) - 1.0)

    def suspect_after_s(self, entity: str) -> float:
        """This entity's (jittered) healthy->suspect threshold."""
        return self.config.suspect_after_s * self._jitter(entity)

    def failed_after_s(self, entity: str) -> float:
        """This entity's (jittered) suspect->failed threshold."""
        return self.config.failed_after_s * self._jitter(entity)

    def recover_confirm_s(self, entity: str) -> float:
        """This entity's (jittered) recovering->healthy dwell."""
        return self.config.recover_confirm_s * self._jitter(entity)

    # -- state access -------------------------------------------------------

    def state_of(self, entity: str) -> HealthState:
        """Current state (HEALTHY for never-observed entities)."""
        watch = self._watches.get(entity)
        return watch.state if watch is not None else HealthState.HEALTHY

    def entities(self) -> List[str]:
        """Every observed entity, in first-observation order."""
        return list(self._watches)

    def in_state(self, state: HealthState) -> List[str]:
        """Entities currently in ``state``, in observation order."""
        return [name for name, watch in self._watches.items()
                if watch.state is state]

    def force_failed(self, entity: str, now_s: float, reason: str) -> None:
        """Pin ``entity`` FAILED (terminal: an abandoned recovery)."""
        watch = self._watches.setdefault(entity, _Watch())
        watch.seen = True
        if watch.state is not HealthState.FAILED:
            self._move(entity, watch, HealthState.FAILED, now_s, reason)
        watch.stall_since = None
        watch.recover_since = None

    # -- the watchdog --------------------------------------------------------

    def observe(self, entity: str, progress: int, reference: int,
                now_s: float, exempt: bool = False) -> HealthState:
        """Feed one sample; returns the (possibly new) state.

        ``progress`` is the entity's own monotone work counter;
        ``reference`` a monotone counter of work offered to it.  With
        ``exempt`` set (station paused for migration, device hosting
        nothing) the stall timer resets but the state freezes — an
        entity mid-evacuation is neither failing further nor recovering.
        """
        watch = self._watches.setdefault(entity, _Watch())
        if not watch.seen:
            watch.seen = True
            watch.last_progress = progress
            watch.reference_mark = reference
            return watch.state
        if exempt:
            watch.stall_since = None
            watch.recover_since = None
            watch.last_progress = progress
            watch.reference_mark = reference
            return watch.state
        if progress > watch.last_progress:
            self._on_progress(entity, watch, now_s)
            watch.last_progress = progress
            watch.reference_mark = reference
            return watch.state
        self._on_stall(entity, watch, reference, now_s)
        return watch.state

    def _on_progress(self, entity: str, watch: _Watch, now_s: float) -> None:
        watch.stall_since = None
        if watch.state is HealthState.SUSPECT:
            # Suspicion withdrawn: the entity was slow, not dead.
            self._move(entity, watch, HealthState.HEALTHY, now_s,
                       "progress resumed")
        elif watch.state is HealthState.FAILED:
            watch.recover_since = now_s
            self._move(entity, watch, HealthState.RECOVERING, now_s,
                       "progress resumed")
        elif watch.state is HealthState.RECOVERING:
            since = watch.recover_since
            if since is not None and \
                    now_s - since >= self.recover_confirm_s(entity):
                watch.recover_since = None
                self._move(entity, watch, HealthState.HEALTHY, now_s,
                           "recovery confirmed")

    def _on_stall(self, entity: str, watch: _Watch, reference: int,
                  now_s: float) -> None:
        if reference - watch.reference_mark < self.config.min_reference_delta:
            # Nothing was offered: an idle entity is not a stalled one.
            return
        if watch.stall_since is None:
            watch.stall_since = now_s
            return
        stalled_s = now_s - watch.stall_since
        if watch.state is HealthState.HEALTHY and \
                stalled_s >= self.suspect_after_s(entity):
            self._move(entity, watch, HealthState.SUSPECT, now_s,
                       f"no progress for {stalled_s:.4f}s under load")
        if watch.state is HealthState.SUSPECT and \
                stalled_s >= self.failed_after_s(entity):
            self._move(entity, watch, HealthState.FAILED, now_s,
                       f"no progress for {stalled_s:.4f}s under load")
        elif watch.state is HealthState.RECOVERING and \
                stalled_s >= self.suspect_after_s(entity):
            # Relapse: the recovery did not stick.
            watch.recover_since = None
            self._move(entity, watch, HealthState.FAILED, now_s,
                       "stalled again during recovery confirmation")

    def _move(self, entity: str, watch: _Watch, state: HealthState,
              now_s: float, reason: str) -> None:
        self.transitions.append(HealthTransition(
            entity=entity, previous=watch.state, state=state,
            at_s=now_s, reason=reason))
        watch.state = state
