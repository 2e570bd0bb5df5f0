"""Outside-in span tracing for the perf benchmark.

The benchmark never edits the program it measures.  :func:`install`
wraps each layer's entry points at class level, before any scenario is
wired, so every call records one span: its name, start, end, parent
and the campaign run index as the request id.  Span names are
``<layer>:<entry>``; a layer's self time is the sum, over its spans, of
each span's duration minus the part its child spans cover.

Per-event spans (engine actions, scheduling calls, accepts, PCIe
crossings, generator steps) run millions of times a pass, so they are
folded into per-name aggregates as they close.  Only the coarse spans
named in :data:`KEPT` are also kept as full records, for the trace file
written when the benchmark ends.

Engine actions are wrapped where they enter the event queue
(``register_action``, ``rebind_action``, ``push``).  The wrapper hashes
and compares equal to the action it wraps, so the queue's interning
map still sees the original callable: re-registering an action returns
its old id and the action table grows exactly as it does untraced.

Forked campaign workers inherit the wrappers.  The first run request a
worker executes resets its inherited copy of the tracer, and after each
request the worker dumps its cumulative aggregates to its own
``<worker_dir>/worker-<pid>-*.json`` for the parent to merge.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Name of the sentinel frame at the bottom of every span stack.  Its
#: child time is the total duration of all top-level spans.
ROOT = "(root)"

#: Spans kept as full ``(name, start, end, parent, request)`` records.
KEPT = frozenset({
    "exec:run_request", "exec:map", "scenario:wiring", "sim.runner:prepare",
    "sim.runner:collect", "sim.engine:run", "core:tick",
    "checkpoint.journal:append",
})

#: Spans whose durations are kept as samples for percentiles.
SAMPLED = ("core:tick", "checkpoint.journal:append", "exec:run_request")

#: Engine actions are attributed to a layer by the module defining them.
ACTION_LAYERS = {
    "repro.sim.network": "sim.network",
    "repro.sim.nfinstance": "sim.nfinstance",
    "repro.sim.faults": "sim.faults",
    "repro.sim.runner": "sim.runner",
    "repro.migration.executor": "migration",
}

#: Layer for actions defined anywhere else.
OTHER_ACTIONS = "sim.other"


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``sim.engine:run`` -> ``sim.engine``)."""
    return name.split(":", 1)[0]


class Tracer:
    """Records spans against an injectable clock.

    ``stats`` maps a span name to ``[count, total_s, self_s]``.  A span
    entered again directly inside a span of the same name (``Engine.after``
    calling ``Engine.at``) adds its self time but is not counted a second
    time, and its duration is already inside its parent's total.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 worker_dir: Optional[str] = None) -> None:
        self.clock = clock
        self.stack: List[list] = [[ROOT, 0.0]]
        self.stats: Dict[str, List[float]] = {}
        self.samples: Dict[str, List[float]] = {name: [] for name in SAMPLED}
        self.records: List[Tuple[str, float, float, str, Optional[int]]] = []
        self.counters: Dict[str, int] = {}
        #: Run index of the campaign request being executed, if any.
        self.request: Optional[int] = None
        #: Where forked workers dump their aggregates (None: no dumps).
        self.worker_dir = worker_dir
        #: The process that created the tracer, and the one whose spans
        #: it currently holds (they differ in a forked worker).
        self.origin_pid = self.pid = os.getpid()
        self._dump_path: Optional[str] = None

    # -- recording ----------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``key``."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with one ``name`` span recorded around every call."""
        stack = self.stack
        clock = self.clock
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.get(name)
        records = self.records if name in KEPT else None
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                stat[2] += elapsed - frame[1]
                if parent[0] != name:
                    stat[0] += 1
                    stat[1] += elapsed
                    if samples is not None:
                        samples.append(elapsed)
                if records is not None:
                    records.append((name, start, end, parent[0],
                                    tracer.request))

        return traced

    def iterate(self, name: str, iterable: Iterable) -> "TracedIterator":
        """An iterator recording one ``name`` span per ``next()``.

        Needed for lazy producers (``TrafficGenerator.packets()``, an
        executor's ``map``): calling them does no work, consuming them
        does.  Items yielded are counted under ``<name>.items``.
        """
        return TracedIterator(self, name, iterable)

    def action(self, action: Callable) -> Callable:
        """Wrap an engine action, attributed by its defining module."""
        if isinstance(action, TracedAction):
            return action
        layer = ACTION_LAYERS.get(getattr(action, "__module__", None),
                                  OTHER_ACTIONS)
        return TracedAction(action, self.wrap(f"{layer}:action", action))

    # -- reading --------------------------------------------------------------

    def attributed_s(self) -> float:
        """Self time summed over every span recorded in this process."""
        return sum(stat[2] for stat in self.stats.values())

    def root_s(self) -> float:
        """Total duration of the top-level spans."""
        return self.stack[0][1]

    # -- forked workers -------------------------------------------------------

    def adopt_fork(self) -> None:
        """Forget what the parent recorded before this process forked.

        Resets in place: the installed wrappers hold references to the
        stack, the stat cells and the sample lists.
        """
        del self.stack[1:]
        self.stack[0][1] = 0.0
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for samples in self.samples.values():
            samples.clear()
        self.records.clear()
        self.counters.clear()
        self.pid = os.getpid()
        self._dump_path = None

    def dump(self) -> None:
        """Write this worker's cumulative aggregates for the parent."""
        if self.worker_dir is None:
            return
        if self._dump_path is None:
            # One file per worker lifetime, even if a later pool reuses
            # the pid.
            handle, self._dump_path = tempfile.mkstemp(
                prefix=f"worker-{self.pid}-", suffix=".json",
                dir=self.worker_dir)
            os.close(handle)
        with open(self._dump_path, "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats, "samples": self.samples,
                       "counters": self.counters,
                       "records": self.records}, handle)

    def worker_dumps(self) -> List[dict]:
        """Every worker dump in :attr:`worker_dir`, in file-name order."""
        if self.worker_dir is None:
            return []
        dumps = []
        for entry in sorted(os.listdir(self.worker_dir)):
            if entry.startswith("worker-") and entry.endswith(".json"):
                with open(os.path.join(self.worker_dir, entry),
                          encoding="utf-8") as handle:
                    dumps.append(json.load(handle))
        return dumps


class TracedIterator:
    """Iterator wrapper behind :meth:`Tracer.iterate`."""

    __slots__ = ("_step", "_close", "_counters", "_key")

    def __init__(self, tracer: Tracer, name: str, iterable: Iterable) -> None:
        iterator = iter(iterable)
        self._step = tracer.wrap(name, iterator.__next__)
        self._close = getattr(iterator, "close", None)
        self._counters = tracer.counters
        self._key = f"{name}.items"

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self):
        item = self._step()
        counters = self._counters
        counters[self._key] = counters.get(self._key, 0) + 1
        return item

    def close(self) -> None:
        """Close the wrapped generator (runs its ``finally`` blocks)."""
        if self._close is not None:
            self._close()


class TracedAction:
    """An engine action recording a span per dispatch.

    Equal to, and hashing like, the action it wraps, so
    ``EventQueue.register_action`` interns it exactly as it would the
    bare callable.
    """

    __slots__ = ("action", "_call")

    def __init__(self, action: Callable, call: Callable) -> None:
        self.action = action
        self._call = call

    def __call__(self, *args):
        return self._call(*args)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TracedAction):
            other = other.action
        return self.action == other

    def __hash__(self) -> int:
        return hash(self.action)


class Installed:
    """Class attributes replaced by :func:`install`, restorable."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value``, remembering the original."""
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _method(tracer: Tracer, name: str, fn: Callable) -> Callable:
    return functools.wraps(fn)(tracer.wrap(name, fn))


def _producer(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A method returning an iterator, traced per item consumed."""

    @functools.wraps(fn)
    def produce(*args, **kwargs):
        produced = fn(*args, **kwargs)
        if isinstance(produced, TracedIterator):
            return produced  # a subclass delegated to a traced base
        return tracer.iterate(name, produced)

    return produce


def install(tracer: Tracer) -> Installed:
    """Wrap every layer's entry points; returns the restore handle."""
    from repro.baselines.naive import NaivePolicy
    from repro.baselines.noop import NoopPolicy
    from repro.chaos import runner as chaos_runner
    from repro.checkpoint.journal import JournalWriter
    from repro.core.operator import HardenedController
    from repro.core.planner import MigrationController, PAMPolicy
    from repro.devices.pcie import PCIeLink
    from repro.exec.campaign import Campaign, _ensure_builtin_campaigns
    from repro.exec.executors import ParallelExecutor, SerialExecutor
    from repro.harness.experiment import ExperimentScenario
    from repro.migration.executor import MigrationExecutor
    from repro.resilience.controller import ResilientController
    from repro.sim.engine import Engine
    from repro.sim.events import EventQueue
    from repro.sim.latency import LatencyLedger
    from repro.sim.nfinstance import NFStation
    from repro.sim.runner import SimulationRunner
    from repro.soak import scenario as soak_scenario
    from repro.soak.invariants import InvariantEngine
    from repro.telemetry.metrics import LatencySummary
    from repro.traffic import patterns, trace  # noqa: F401 (subclasses)
    from repro.traffic.generators import TrafficGenerator

    installed = Installed()

    def method(owner, attr, name):
        installed.replace(owner, attr,
                          _method(tracer, name, owner.__dict__[attr]))

    # sim.engine: the dispatch loop, plus the events it executed.
    engine_run = tracer.wrap("sim.engine:run", Engine.run)

    @functools.wraps(Engine.run)
    def run(engine, *args, **kwargs):
        before = engine.events_processed
        try:
            return engine_run(engine, *args, **kwargs)
        finally:
            tracer.count("sim.engine.events",
                         engine.events_processed - before)

    installed.replace(Engine, "run", run)
    # sim.events: every scheduling call.
    for attr in ("at", "after", "call_at", "call_after", "call_at_id",
                 "call_after_id", "call_after_id_pair", "call_at_id_many"):
        method(Engine, attr, "sim.events:schedule")
    # Engine actions, attributed by module where they enter the queue.
    register = EventQueue.register_action
    rebind = EventQueue.rebind_action
    push = EventQueue.push

    @functools.wraps(register)
    def register_action(queue, action):
        return register(queue, tracer.action(action))

    @functools.wraps(rebind)
    def rebind_action(queue, action_id, action):
        return rebind(queue, action_id, tracer.action(action))

    @functools.wraps(push)
    def push_action(queue, time_s, action, *args, **kwargs):
        return push(queue, time_s, tracer.action(action), *args, **kwargs)

    installed.replace(EventQueue, "register_action", register_action)
    installed.replace(EventQueue, "rebind_action", rebind_action)
    installed.replace(EventQueue, "push", push_action)
    # sim.nfinstance: station admission, with its drop outcome.
    accept = tracer.wrap("sim.nfinstance:accept", NFStation.accept)

    @functools.wraps(NFStation.accept)
    def accept_counting(station, packet):
        accepted = accept(station, packet)
        if not accepted:
            tracer.count("sim.nfinstance.drops")
        return accepted

    installed.replace(NFStation, "accept", accept_counting)
    method(PCIeLink, "record_crossing", "devices.pcie:crossing")
    for attr in ("record_for", "records", "component_means"):
        method(LatencyLedger, attr, "sim.latency:ledger")
    summary = LatencySummary.__dict__["from_samples"].__func__
    installed.replace(LatencySummary, "from_samples", classmethod(
        _method(tracer, "telemetry.metrics:summary", summary)))
    # traffic: generator consumption.
    generators = [TrafficGenerator]
    while generators:
        cls = generators.pop()
        generators.extend(cls.__subclasses__())
        if "packets" in cls.__dict__:
            installed.replace(cls, "packets", _producer(
                tracer, "traffic:packets", cls.__dict__["packets"]))
    # sim.runner: the scenario protocol's prepare and collect.
    method(SimulationRunner, "prepare", "sim.runner:prepare")
    method(SimulationRunner, "_collect", "sim.runner:collect")
    # Per-run fixed costs: wiring a scenario and the chaos end checks.
    method(ExperimentScenario, "__init__", "scenario:wiring")
    method(chaos_runner.ChaosRunner, "build_scenario", "scenario:wiring")
    installed.replace(soak_scenario, "build_case_scenario", _method(
        tracer, "scenario:wiring", soak_scenario.build_case_scenario))
    installed.replace(chaos_runner, "check_invariants", _method(
        tracer, "scenario:check", chaos_runner.check_invariants))
    # core: the control-plane tick and plan selection.
    for controller in (HardenedController, ResilientController,
                       MigrationController):
        method(controller, "on_tick", "core:tick")
    for policy in (PAMPolicy, NaivePolicy, NoopPolicy):
        method(policy, "select", "core:select")
    # migration: the executor's attempt pipeline.
    method(MigrationExecutor, "_start_attempt", "migration:attempt")
    for attr in ("apply", "_finish_attempt", "_fail_attempt"):
        method(MigrationExecutor, attr, "migration:step")
    # soak.invariants: batched trace delivery, tick hooks, end checks.
    method(Engine, "flush_trace", "soak.invariants:flush")
    method(InvariantEngine, "_on_tick", "soak.invariants:tick")
    finalize = tracer.wrap("soak.invariants:finalize",
                           InvariantEngine.finalize)

    @functools.wraps(InvariantEngine.finalize)
    def finalize_counting(engine):
        violations = finalize(engine)
        tracer.count("soak.invariants.events_checked", engine.events_checked)
        return violations

    installed.replace(InvariantEngine, "finalize", finalize_counting)
    method(JournalWriter, "append", "checkpoint.journal:append")
    # exec: run requests (with the request id) and executor transport.
    _ensure_builtin_campaigns()
    campaigns = [Campaign]
    while campaigns:
        cls = campaigns.pop()
        campaigns.extend(cls.__subclasses__())
        if "run_request" in cls.__dict__ and cls is not Campaign:
            installed.replace(cls, "run_request", _run_request(
                tracer, cls.__dict__["run_request"]))
    for executor in (SerialExecutor, ParallelExecutor):
        installed.replace(executor, "map", _producer(
            tracer, "exec:map", executor.__dict__["map"]))
    return installed


def _run_request(tracer: Tracer, fn: Callable) -> Callable:
    traced = tracer.wrap("exec:run_request", fn)

    @functools.wraps(fn)
    def run_request(campaign, request):
        if os.getpid() != tracer.pid:
            tracer.adopt_fork()
        tracer.request = request.index
        try:
            return traced(campaign, request)
        finally:
            tracer.request = None
            if tracer.pid != tracer.origin_pid:
                tracer.dump()

    return run_request
