"""The online invariant engine: declarative checks at every tick.

The chaos invariants (:mod:`repro.chaos.invariants`) inspect the
*drained end state* — good enough to know a run broke, too late to know
*when*.  This module evaluates registered invariants **online**: at
every monitor tick (a quiescent point, via
:meth:`SimulationRunner.add_tick_hook`) and, for the cheap ones, at
every executed engine event (via :meth:`Engine.add_trace_observer`,
which delivers ``(time_s, priority, seq)`` keys in batches so the
per-event cost stays off the engine's hot path).  The
end-state checks are registered here too, so one engine is the superset
of every ad-hoc check the chaos/resilience/reliability campaigns grew.

Each invariant is a :class:`RuntimeInvariant` subclass registered with
:func:`register_invariant`; the :class:`InvariantEngine` instantiates
the catalogue, attaches to a wired simulation, records the *first*
violation per invariant (bounded, deterministic output), and reports
everything on :meth:`~InvariantEngine.finalize`.

The catalogue (also printed by ``python -m repro soak
--list-invariants``):

== online, per engine event ==
* ``virtual-time-monotonic`` — executed event times never go backwards.

== online, per monitor tick ==
* ``packet-conservation-online`` — fates (delivered + dropped +
  filtered + shed) never exceed injections; in-flight never negative;
  arrived bytes never exceed injected bytes.
* ``queue-bounds`` — no station queue exceeds its device's configured
  capacity (depth and recorded peak).
* ``budget-ledger`` — the hardened controller's migration budget never
  goes negative and successful migrations never exceed it.
* ``health-fsm-legal`` — every recorded health transition follows a
  legal FSM edge and continues from the entity's previous state.
* ``zero-protected-shed-online`` — protected priority classes are
  never shed, checked as it would happen rather than after the drain.

== end state, after the drain ==
* ``drained-end-state`` — delegates to
  :func:`repro.chaos.invariants.check_invariants` (conservation,
  stations resumed, executor quiescent, demand refreshed, faults
  restored, causality).
* ``resilience-end-state`` — delegates to
  :func:`repro.chaos.invariants.check_resilience_invariants` on
  resilient runs (recovery terminal, shed classes, shed fraction).
"""

from __future__ import annotations

from itertools import islice
from operator import le
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from ..chaos.invariants import (Violation, check_invariants,
                                check_resilience_invariants)
from ..errors import ConfigurationError
from ..resilience.health import HealthState

#: Registered invariant classes, in registration order (deterministic:
#: module-level registration happens once, top to bottom).
_REGISTRY: Dict[str, Type["RuntimeInvariant"]] = {}


def register_invariant(cls: Type["RuntimeInvariant"]
                       ) -> Type["RuntimeInvariant"]:
    """Class decorator: add an invariant to the default catalogue."""
    if not cls.name:
        raise ConfigurationError(
            f"invariant class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ConfigurationError(
            f"invariant name {cls.name!r} already registered "
            f"to {_REGISTRY[cls.name].__name__}")
    _REGISTRY[cls.name] = cls
    return cls


def default_invariants() -> List["RuntimeInvariant"]:
    """Fresh instances of every registered invariant."""
    return [cls() for cls in _REGISTRY.values()]


def invariant_catalogue() -> List[Tuple[str, str]]:
    """``(name, description)`` for every registered invariant."""
    return [(cls.name, cls.description) for cls in _REGISTRY.values()]


class Observation:
    """What an invariant may look at: the wired simulation's live state.

    One instance per attached engine; the same object is passed to
    every hook so invariants can keep no references of their own.
    """

    def __init__(self, sim, hardened=None, resilient=None) -> None:
        self.sim = sim
        self.hardened = hardened
        self.resilient = resilient
        #: Index of the tick being observed (-1 outside a tick; set to
        #: the final tick count again for the end-state pass).
        self.tick_index = -1

    @property
    def network(self):
        """The simulation's :class:`ChainNetwork`."""
        return self.sim.network

    @property
    def server(self):
        """The simulated server (devices, placement, PCIe)."""
        return self.sim.server

    @property
    def now_s(self) -> float:
        """Current virtual time."""
        return self.sim.engine.now_s


class RuntimeInvariant:
    """Base class: override the hooks that apply; yield detail strings.

    ``on_tick``/``on_batch`` yield plain detail strings —
    the engine wraps them into :class:`Violation` under the invariant's
    ``name``.  ``at_end`` yields full :class:`Violation` objects so
    delegating invariants can preserve the primitive checks'
    established names (``packet-conservation``, ``shed-classes``, ...).

    Event-level checks arrive as *batches* of ``(time_s, priority,
    seq)`` keys in execution order; the engine keeps only the first
    detail an ``on_batch`` yields, so a lazy generator may abandon the
    rest of the batch.
    """

    #: Stable identifier; becomes the ``invariant`` field of violations.
    name = ""
    #: One line for the catalogue and ``--list-invariants``.
    description = ""

    def on_batch(self, keys: List[Tuple[float, int, int]],
                 obs: Observation) -> Iterable[str]:
        """Called with each batch of executed-event trace keys."""
        return ()

    def on_tick(self, obs: Observation) -> Iterable[str]:
        """Called at every monitor-tick quiescent point."""
        return ()

    def at_end(self, obs: Observation) -> Iterable[Violation]:
        """Called once after the full drain."""
        return ()


@register_invariant
class MonotonicVirtualTime(RuntimeInvariant):
    """Event times must never decrease — the engine's core promise."""

    name = "virtual-time-monotonic"
    description = ("executed event times are non-decreasing and "
                   "non-negative")

    def __init__(self) -> None:
        self._last_s = 0.0

    def on_batch(self, keys: List[Tuple[float, int, int]],
                 obs: Observation) -> Iterable[str]:
        """Batched monotonicity check with a sorted-batch fast path.

        Keys arrive in execution order; when the batch is internally
        sorted, non-negative, and starts at or after the high-water
        mark, one comparison per key (a single C-level pairwise pass —
        ``map(le, keys, keys[1:])`` without the copy) proves the whole
        batch clean.  Anything suspicious falls back to :meth:`_scan`.
        """
        if (keys and keys[0][0] >= self._last_s and keys[0][0] >= 0.0
                and all(map(le, keys, islice(keys, 1, None)))):
            self._last_s = keys[-1][0]
            return ()
        return self._scan(keys)

    def _scan(self, keys: List[Tuple[float, int, int]]) -> Iterator[str]:
        """The exact per-event scan, lazily: the engine stops at the
        first detail, which trips the invariant and abandons the batch."""
        for at_s, __, __ in keys:
            if at_s < self._last_s:
                yield (f"event at {at_s!r}s executed after virtual time "
                       f"already reached {self._last_s!r}s")
            if at_s < 0.0:
                yield f"event scheduled at negative time {at_s!r}s"
            self._last_s = max(self._last_s, at_s)


@register_invariant
class OnlineConservation(RuntimeInvariant):
    """Byte/packet conservation, checked while the run is in flight."""

    name = "packet-conservation-online"
    description = ("fates never exceed injections, in-flight never "
                   "negative, arrived bytes never exceed injected "
                   "bytes, at every tick")

    def on_tick(self, obs: Observation) -> Iterable[str]:
        """Check the packet/byte ledger against the injected totals."""
        network = obs.network
        fates = (len(network.delivered) + network.dropped
                 + network.filtered + network.shed)
        if fates > network.injected:
            yield (f"tick {obs.tick_index}: {fates} packet fates "
                   f"recorded but only {network.injected} injected — "
                   "a packet was accounted twice")
        if network.in_flight() < 0:
            yield (f"tick {obs.tick_index}: negative in-flight count "
                   f"{network.in_flight()}")
        if network.arrived_bytes > network.injected_bytes:
            yield (f"tick {obs.tick_index}: {network.arrived_bytes} "
                   f"bytes arrived at ingress but only "
                   f"{network.injected_bytes} were injected")


@register_invariant
class QueueBounds(RuntimeInvariant):
    """Bounded queues must actually stay bounded."""

    name = "queue-bounds"
    description = ("no station queue depth (current or peak) exceeds "
                   "its configured capacity")

    def on_tick(self, obs: Observation) -> Iterable[str]:
        """Check every station's current and peak depth against capacity."""
        for name in sorted(obs.network.stations):
            queue = obs.network.stations[name].queue
            capacity = queue.capacity_packets
            if len(queue) > capacity:
                yield (f"tick {obs.tick_index}: station {name!r} queue "
                       f"depth {len(queue)} exceeds capacity {capacity}")
            elif queue.stats.peak_depth > capacity:
                yield (f"station {name!r} recorded peak depth "
                       f"{queue.stats.peak_depth} above capacity "
                       f"{capacity}")


@register_invariant
class BudgetLedger(RuntimeInvariant):
    """The migration budget is a hard ledger, never an overdraft."""

    name = "budget-ledger"
    description = ("the hardened controller's migration budget never "
                   "goes negative")

    def on_tick(self, obs: Observation) -> Iterable[str]:
        """Flag a migration budget driven below zero."""
        hardened = obs.hardened
        if hardened is None:
            return
        if hardened.budget_left < 0:
            yield (f"tick {obs.tick_index}: migration budget overdrawn "
                   f"to {hardened.budget_left} "
                   f"({len(hardened.migrations)} migrations against a "
                   f"budget of {hardened.config.migration_budget})")


#: Legal health-FSM edges (see :mod:`repro.resilience.health`):
#: progress/stall transitions plus ``force_failed`` from any live state.
_LEGAL_HEALTH_EDGES = frozenset({
    (HealthState.HEALTHY, HealthState.SUSPECT),
    (HealthState.HEALTHY, HealthState.FAILED),
    (HealthState.SUSPECT, HealthState.HEALTHY),
    (HealthState.SUSPECT, HealthState.FAILED),
    (HealthState.FAILED, HealthState.RECOVERING),
    (HealthState.RECOVERING, HealthState.HEALTHY),
    (HealthState.RECOVERING, HealthState.FAILED),
})


@register_invariant
class HealthFsmLegal(RuntimeInvariant):
    """Health transitions must walk legal edges, with continuity."""

    name = "health-fsm-legal"
    description = ("every health transition follows a legal FSM edge "
                   "and continues from the entity's previous state")

    def __init__(self) -> None:
        self._seen = 0
        self._last: Dict[str, HealthState] = {}

    def _scan(self, obs: Observation) -> Iterable[str]:
        resilient = obs.resilient
        if resilient is None:
            return
        transitions = resilient.health.transitions
        for transition in transitions[self._seen:]:
            expected = self._last.get(transition.entity,
                                      HealthState.HEALTHY)
            if transition.previous is not expected:
                yield (f"{transition.entity!r} transition at "
                       f"{transition.at_s:.4f}s claims previous state "
                       f"{transition.previous.value} but the last "
                       f"recorded state was {expected.value}")
            edge = (transition.previous, transition.state)
            if edge not in _LEGAL_HEALTH_EDGES:
                yield (f"illegal health edge "
                       f"{transition.previous.value} -> "
                       f"{transition.state.value} for "
                       f"{transition.entity!r} at "
                       f"{transition.at_s:.4f}s ({transition.reason})")
            self._last[transition.entity] = transition.state
        self._seen = len(transitions)

    def on_tick(self, obs: Observation) -> Iterable[str]:
        """Validate the health transitions recorded since the last tick."""
        return self._scan(obs)

    def at_end(self, obs: Observation) -> Iterable[Violation]:
        """Validate transitions recorded after the last tick (the drain)."""
        return (Violation(self.name, detail)
                for detail in self._scan(obs))


@register_invariant
class ZeroProtectedShed(RuntimeInvariant):
    """Protected classes are never shed — caught as it happens."""

    name = "zero-protected-shed-online"
    description = ("protected priority classes have shed zero packets "
                   "at every tick")

    def on_tick(self, obs: Observation) -> Iterable[str]:
        """Flag any packet shed from a protected priority class."""
        resilient = obs.resilient
        if resilient is None:
            return
        protected = resilient.shedder.protected_shed_packets()
        if protected:
            yield (f"tick {obs.tick_index}: {protected} packets shed "
                   "from protected priority classes")


@register_invariant
class DrainedEndState(RuntimeInvariant):
    """The full chaos end-state suite, unified under the engine."""

    name = "drained-end-state"
    description = ("the drained end state passes every chaos "
                   "invariant (conservation, stations, executor, "
                   "demand, fault restores, causality)")

    def at_end(self, obs: Observation) -> Iterable[Violation]:
        """Run :func:`check_invariants` on the drained end state."""
        executor = obs.hardened.executor if obs.hardened else None
        return check_invariants(obs.network, obs.server, executor)


@register_invariant
class ResilienceEndState(RuntimeInvariant):
    """The resilience end-state suite, on resilient runs only."""

    name = "resilience-end-state"
    description = ("resilient runs pass the resilience invariants "
                   "(recovery terminal, shed classes, shed fraction)")

    def at_end(self, obs: Observation) -> Iterable[Violation]:
        """Run :func:`check_resilience_invariants` on resilient runs."""
        resilient = obs.resilient
        if resilient is None:
            return ()
        return check_resilience_invariants(
            resilient, resilient.config.degradation.max_shed_fraction)


class InvariantEngine:
    """Attaches the catalogue to a wired simulation and watches it run.

    Only the *first* violation per invariant name is recorded (online
    violations tend to repeat every tick once tripped; the first is the
    diagnosis, the rest are noise), keeping output bounded and
    deterministic.  :meth:`finalize` appends the end-state violations
    and returns everything in a stable order: online violations in
    occurrence order, then end-state violations in catalogue order.
    """

    def __init__(self, invariants: Optional[List[RuntimeInvariant]]
                 = None) -> None:
        self.invariants = (default_invariants() if invariants is None
                           else list(invariants))
        # The event hook runs per executed-event batch — skip
        # invariants that do not override the batch hook (same for
        # ticks) to keep the hot path flat.
        self._event_invariants = [
            inv for inv in self.invariants
            if type(inv).on_batch is not RuntimeInvariant.on_batch]
        self._tick_invariants = [
            inv for inv in self.invariants
            if type(inv).on_tick is not RuntimeInvariant.on_tick]
        self.violations: List[Violation] = []
        self._tripped: set = set()
        self._obs: Optional[Observation] = None
        #: Ticks observed / events observed, for run payloads.
        self.ticks_checked = 0
        self.events_checked = 0
        self._finalized = False

    def attach(self, sim, hardened=None, resilient=None) -> None:
        """Hook into the runner's ticks and the engine's event stream."""
        if self._obs is not None:
            raise ConfigurationError("invariant engine already attached")
        self._obs = Observation(sim, hardened=hardened,
                                resilient=resilient)
        sim.add_tick_hook(self._on_tick)
        sim.engine.add_trace_observer(self._on_trace)

    def _record(self, invariant: RuntimeInvariant,
                details: Iterable[str]) -> None:
        if invariant.name in self._tripped:
            return
        for detail in details:
            self.violations.append(Violation(invariant.name, detail))
            self._tripped.add(invariant.name)
            break

    def _on_trace(self, keys: List[Tuple[float, int, int]]) -> None:
        self.events_checked += len(keys)
        for invariant in self._event_invariants:
            self._record(invariant, invariant.on_batch(keys, self._obs))

    def _on_tick(self, tick_index: int) -> None:
        self.ticks_checked += 1
        self._obs.tick_index = tick_index
        for invariant in self._tick_invariants:
            self._record(invariant, invariant.on_tick(self._obs))
        self._obs.tick_index = -1

    def finalize(self) -> List[Violation]:
        """Run the end-state checks; return every recorded violation.

        Idempotent: a second call returns the same list without
        re-running the end-state pass.
        """
        if self._obs is None:
            raise RuntimeError("finalize() before attach()")
        if not self._finalized:
            self._finalized = True
            # Any trace keys still buffered in the engine must be seen
            # before the end-state pass.
            self._obs.sim.engine.flush_trace()
            self._obs.tick_index = self.ticks_checked
            for invariant in self.invariants:
                self.violations.extend(invariant.at_end(self._obs))
            self._obs.tick_index = -1
        return list(self.violations)
