"""Event-safety rules (EVT3xx).

The engine's whole determinism story is the ``(time, priority, seq)``
ordering enforced by :class:`repro.sim.events.EventQueue`.  A raw
``heapq.heappush`` elsewhere bypasses the sequence-number tie-break
(simultaneous events then compare by whatever the payload compares by),
and poking ``engine._queue`` / writing ``engine.now_s`` from a handler
desynchronises the clock from the queue.  Handlers must stay inside the
public ``Engine`` scheduling surface (``at``/``after`` and the
id-based ``call_*`` calls).
"""

from __future__ import annotations

import ast

from .findings import Severity
from .visitor import LintRule, ModuleContext, dotted_name, register

#: The one module allowed to touch heapq: the deterministic EventQueue.
_HEAP_HOME = "repro.sim.events"
#: Modules that own the scheduler internals they touch.
_ENGINE_HOME = ("repro.sim.engine", "repro.sim.events")

_HEAP_FNS = frozenset({"heappush", "heappop", "heapify", "heapreplace",
                       "heappushpop", "merge", "nsmallest", "nlargest"})

#: Private scheduler attributes nothing outside the engine may touch:
#: the engine's queue, and the queue's counters, calendar buckets,
#: drain cursor and action table.
_SCHEDULER_PRIVATES = frozenset({
    "_queue", "_seq", "_count", "_buckets", "_bucket_heap", "_current",
    "_pos", "_action_table", "_action_ids", "_epoch"})


@register
class RawHeapRule(LintRule):
    """EVT301: heapq used outside the deterministic EventQueue."""

    code = "EVT301"
    name = "raw-heap"
    severity = Severity.ERROR
    rationale = ("heapq on bare (time, payload) tuples falls back to "
                 "comparing payloads when times tie — either a TypeError "
                 "or an ordering that depends on payload internals. "
                 "EventQueue adds the monotonically increasing seq "
                 "tie-break; all event scheduling must go through it.")

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Flag ``heapq.*`` calls outside the event-queue module."""
        if ctx.module == _HEAP_HOME:
            return
        chain = dotted_name(node.func)
        if chain is None:
            return
        parts = chain.split(".")
        if parts[0] == "heapq" and len(parts) == 2 and \
                parts[1] in _HEAP_FNS:
            ctx.report(self, node,
                       f"direct {chain}() bypasses EventQueue's "
                       "(time, priority, seq) tie-break; schedule through "
                       "repro.sim.events.EventQueue / Engine.at")


@register
class SchedulerInternalsRule(LintRule):
    """EVT302: handler code reaching into engine/queue internals."""

    code = "EVT302"
    name = "scheduler-internals"
    severity = Severity.ERROR
    rationale = ("Mutating engine internals (its calendar buckets, its "
                 "seq counter) or writing now_s from an event handler "
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
