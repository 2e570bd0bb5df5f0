"""Event-safety rules (EVT3xx).

The engine's whole determinism story is the ``(time, priority, seq)``
ordering enforced by :class:`repro.sim.events.EventQueue`.  A raw
``heapq`` push elsewhere — however ``heapq`` or its functions were
imported — bypasses the sequence-number tie-break
(simultaneous events then compare by whatever the payload compares by),
and poking ``engine._queue`` / writing ``engine.now_s`` from a handler
desynchronises the clock from the queue.  Handlers must stay inside the
public ``Engine`` scheduling surface (``at``/``after`` and the
id-based ``call_*`` calls).
"""

from __future__ import annotations

import ast
from typing import Dict, Set

from .findings import Severity
from .visitor import LintRule, ModuleContext, dotted_name, register

#: Modules that own the scheduler: the only ones allowed to touch heapq
#: and the scheduler internals (the engine's run loop and id fast paths
#: push and pop the queue's heap directly).
_ENGINE_HOME = ("repro.sim.engine", "repro.sim.events")

_HEAP_FNS = frozenset({"heappush", "heappop", "heapify", "heapreplace",
                       "heappushpop", "merge", "nsmallest", "nlargest"})

#: Private scheduler attributes nothing outside the engine may touch:
#: the engine's queue, and the queue's seq counter, heap, action table
#: and stream step (streams live in heap entries; stepping one out of
#: turn would run its items out of order).
_SCHEDULER_PRIVATES = frozenset({
    "_queue", "_seq", "_heap", "_action_table", "_action_ids",
    "_run_stream"})


@register
class RawHeapRule(LintRule):
    """EVT301: heapq used outside the scheduler modules."""

    code = "EVT301"
    name = "raw-heap"
    severity = Severity.ERROR
    rationale = ("heapq on bare (time, payload) tuples falls back to "
                 "comparing payloads when times tie — either a TypeError "
                 "or an ordering that depends on payload internals. "
                 "EventQueue adds the monotonically increasing seq "
                 "tie-break; all event scheduling must go through it.")

    def __init__(self) -> None:
        #: Names bound to the heapq module, and local names bound to its
        #: functions (mapped to the function's real name).
        self._modules: Set[str] = set()
        self._functions: Dict[str, str] = {}

    def begin_module(self, ctx: ModuleContext) -> None:
        """Collect what ``heapq`` is bound to here: ``import heapq``,
        ``import heapq as hq`` and ``from heapq import heappush [as p]``."""
        self._modules = {"heapq"}
        self._functions = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                self._modules.update(alias.asname or alias.name
                                     for alias in node.names
                                     if alias.name == "heapq")
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "heapq" and not node.level:
                self._functions.update(
                    (alias.asname or alias.name, alias.name)
                    for alias in node.names if alias.name in _HEAP_FNS)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Flag heapq calls outside the scheduler modules."""
        if ctx.module in _ENGINE_HOME:
            return
        chain = dotted_name(node.func)
        if chain is None:
            return
        parts = chain.split(".")
        if len(parts) == 2 and parts[0] in self._modules and \
                parts[1] in _HEAP_FNS:
            function = parts[1]
        elif len(parts) == 1 and parts[0] in self._functions:
            function = self._functions[parts[0]]
        else:
            return
        ctx.report(self, node,
                   f"direct {chain}() (heapq.{function}) bypasses "
                   "EventQueue's (time, priority, seq) tie-break; schedule "
                   "through repro.sim.events.EventQueue / Engine.at")


@register
class SchedulerInternalsRule(LintRule):
    """EVT302: handler code reaching into engine/queue internals."""

    code = "EVT302"
    name = "scheduler-internals"
    severity = Severity.ERROR
    rationale = ("Mutating engine internals (its heap and streams, "
                 "its seq counter) or writing now_s from an event handler "
                 "breaks the engine's invariant that the clock only "
                 "advances by draining the queue. Schedule through the "
                 "public Engine API and let the engine own its clock.")

    def visit_Attribute(self, node: ast.Attribute, ctx: ModuleContext) -> None:
        """Flag access to scheduler-private attributes."""
        if ctx.module in _ENGINE_HOME:
            return
        if node.attr in _SCHEDULER_PRIVATES:
            receiver = dotted_name(node.value) or ""
            tail = receiver.rsplit(".", 1)[-1].lower()
            if "engine" in tail or "queue" in tail:
                ctx.report(self, node,
                           f"access to scheduler internal "
                           f"{receiver}.{node.attr}; use the public "
                           "Engine/EventQueue API")
        elif node.attr == "now_s" and isinstance(node.ctx, ast.Store):
            receiver = dotted_name(node.value) or ""
            tail = receiver.rsplit(".", 1)[-1].lower()
            if "engine" in tail:
                ctx.report(self, node,
                           f"writing {receiver}.now_s rewinds/forges the "
                           "simulation clock; only the engine's event "
                           "loop may advance it")
