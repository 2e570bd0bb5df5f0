"""Determinism rules (DET1xx).

The paper's headline comparison (PAM vs naive, −18% tail latency) is a
*paired* experiment: both policies replay the identical packet arrival
process.  That only holds if every random draw flows from an explicit
seed, no code path consults the wall clock, and nothing orders work by
memory address or hash-salted set iteration.  These rules make those
properties checkable at the source level, where the chaos harness's
seeded :class:`~repro.chaos.schedule.ChaosSchedule` merely assumes them.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from .findings import Severity
from .visitor import LintRule, ModuleContext, dotted_name, register

#: Functions on the module-level (shared, implicitly seeded) RNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "seed", "getstate", "setstate", "getrandbits", "randrange",
    "randint", "choice", "choices", "shuffle", "sample", "uniform",
    "triangular", "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "randbytes", "binomialvariate",
})

#: Attribute chains that read the wall clock.
_WALL_CLOCK_SUFFIXES = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.localtime", "time.gmtime",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
)

_SET_ANNOTATION_MARKERS = ("Set[", "set[", "FrozenSet[", "frozenset[")


def _chain_matches(chain: Optional[str], suffixes: tuple) -> Optional[str]:
    """The first suffix that ``chain`` ends with, else None."""
    if chain is None:
        return None
    for suffix in suffixes:
        if chain == suffix or chain.endswith("." + suffix):
            return suffix
    return None


@register
class UnseededRngRule(LintRule):
    """DET101: ``random.Random()`` (or ``default_rng()``) without a seed."""

    code = "DET101"
    name = "unseeded-rng"
    severity = Severity.ERROR
    rationale = ("An RNG constructed without a seed draws entropy from the "
                 "OS, so two runs of the 'same' scenario diverge and the "
                 "paired PAM-vs-naive comparison stops being paired.")

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Flag RNG constructors called without a seed."""
        chain = dotted_name(node.func)
        constructor = _chain_matches(
            chain, ("random.Random", "Random", "default_rng",
                    "random.default_rng", "SystemRandom",
                    "random.SystemRandom"))
        if constructor is None:
            return
        if "SystemRandom" in constructor:
            ctx.report(self, node,
                       "SystemRandom is unseedable by design; use "
                       "random.Random(seed) so runs replay")
            return
        if not node.args and not node.keywords:
            ctx.report(self, node,
                       f"{constructor}() without a seed; thread a seed "
                       "from the scenario/config so runs replay")


@register
class ModuleRandomRule(LintRule):
    """DET102: calls on the shared module-level ``random`` RNG."""

    code = "DET102"
    name = "module-random"
    severity = Severity.ERROR
    rationale = ("random.random()/choice()/... share one process-global "
                 "generator, so draws interleave across components and any "
                 "new call site silently perturbs every existing stream. "
                 "Each component must own a random.Random(seed).")

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Flag calls on the module-level ``random`` generator."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if not isinstance(func.value, ast.Name):
            return
        if func.value.id == "random" and func.attr in _GLOBAL_RANDOM_FNS:
            ctx.report(self, node,
                       f"module-level random.{func.attr}() uses the shared "
                       "global RNG; use a per-component "
                       "random.Random(seed) instead")


@register
class WallClockRule(LintRule):
    """DET103: wall-clock reads inside simulation code."""

    code = "DET103"
    name = "wall-clock"
    severity = Severity.ERROR
    rationale = ("Simulated time comes from Engine.now_s; reading the host "
                 "clock couples results to machine speed and breaks "
                 "bit-for-bit replay of a seeded run.")

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Flag wall-clock reads such as ``time.time()``."""
        chain = dotted_name(node.func)
        matched = _chain_matches(chain, _WALL_CLOCK_SUFFIXES)
        if matched is not None:
            ctx.report(self, node,
                       f"wall-clock read {matched}(); simulation code must "
                       "take time from Engine.now_s (or accept a timestamp "
                       "parameter)")


@register
class ExecWallClockRule(LintRule):
    """DET107: wall-clock use in the exec core outside the supervisor."""

    code = "DET107"
    name = "exec-wall-clock"
    severity = Severity.ERROR
    rationale = ("The campaign exec core promises bit-exact merges across "
                 "executors, so retry backoff and scheduling must derive "
                 "from seeds, never the host clock. The one sanctioned "
                 "clock is the supervisor's DeadlineClock (whose readings "
                 "never enter a payload); a time.time()/monotonic()/"
                 "sleep() anywhere else in repro.exec can leak host timing "
                 "into journaled results.")

    _SANCTIONED_MODULE = "repro.exec.supervisor"
    _SUFFIXES = _WALL_CLOCK_SUFFIXES + ("time.sleep",)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Flag wall-clock reads/sleeps under ``repro.exec``."""
        if ctx.module is None:
            return
        if ctx.module != "repro.exec" and \
                not ctx.module.startswith("repro.exec."):
            return
        if ctx.module == self._SANCTIONED_MODULE:
            return
        matched = _chain_matches(dotted_name(node.func), self._SUFFIXES)
        if matched is not None:
            ctx.report(self, node,
                       f"{matched}() inside the exec core; the only "
                       "sanctioned wall clock is the supervisor's "
                       "DeadlineClock, and backoff must be seed-derived")


@register
class AddressOrderRule(LintRule):
    """DET104: ``id()``/``hash()`` used as an ordering key."""

    code = "DET104"
    name = "address-order"
    severity = Severity.WARNING
    rationale = ("id() is a memory address and hash() of str/bytes is "
                 "salted per process (PYTHONHASHSEED), so any ordering "
                 "derived from them differs between runs. Tie-break on "
                 "stable fields (name, sequence number) instead.")

    _SORTERS = frozenset({"sorted", "sort", "min", "max", "nsmallest",
                          "nlargest"})

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Flag ``id()``/``hash()`` inside a sort key."""
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        if func_name not in self._SORTERS:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            for inner in ast.walk(keyword.value):
                if isinstance(inner, ast.Call) and \
                        isinstance(inner.func, ast.Name) and \
                        inner.func.id in ("id", "hash"):
                    ctx.report(self, inner,
                               f"{inner.func.id}() inside a sort key orders "
                               "by memory address / salted hash; use a "
                               "stable field as the tie-break")
                elif isinstance(inner, ast.Name) and \
                        inner.id in ("id", "hash") and \
                        inner is keyword.value:
                    ctx.report(self, inner,
                               f"key={inner.id} orders by memory address / "
                               "salted hash; use a stable field as the "
                               "tie-break")


@register
class SimStatePickleRule(LintRule):
    """DET106: pickling/deepcopying live simulation state."""

    code = "DET106"
    name = "sim-state-pickle"
    severity = Severity.ERROR
    rationale = ("pickle and copy.deepcopy happily serialize an Engine, "
                 "an EventQueue, or an RNG — closures, bound methods, "
                 "heap entries and all — producing snapshots that are "
                 "huge, version-fragile, and wrong to restore (a copied "
                 "closure still points at the old object graph). "
                 "Work resumes by seeded replay: the repro.checkpoint "
                 "journal records finished runs, never live state.")

    _PICKLE_FNS = ("pickle.dump", "pickle.dumps", "pickle.load",
                   "pickle.loads", "copy.deepcopy", "deepcopy")
    _STATE_MARKERS = ("engine", "queue", "rng", "random")

    def _names_sim_state(self, node: ast.AST) -> Optional[str]:
        """A name/attribute in ``node`` that smells like sim state."""
        for inner in ast.walk(node):
            text = None
            if isinstance(inner, ast.Name):
                text = inner.id
            elif isinstance(inner, ast.Attribute):
                text = inner.attr
            if text is None:
                continue
            lowered = text.lower()
            for marker in self._STATE_MARKERS:
                if marker in lowered:
                    return text
        return None

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Flag pickle/deepcopy calls whose argument is sim state."""
        if ctx.module is not None and \
                ctx.module.startswith("repro.checkpoint"):
            # The one module allowed to serialize simulation state.
            return
        chain = dotted_name(node.func)
        matched = _chain_matches(chain, self._PICKLE_FNS)
        if matched is None:
            return
        for arg in node.args:
            named = self._names_sim_state(arg)
            if named is not None:
                ctx.report(self, node,
                           f"{matched}({named}, ...) serializes live "
                           "simulation state; resume by seeded replay "
                           "through the repro.checkpoint journal instead")
                return


@register
class SetIterationRule(LintRule):
    """DET105: iterating a set where order can leak into behaviour."""

    code = "DET105"
    name = "set-iteration"
    severity = Severity.WARNING
    rationale = ("Set iteration order depends on insertion history and the "
                 "per-process hash seed. When the loop body schedules "
                 "events, builds candidate pools, or raises the first "
                 "violation found, that order becomes observable. Wrap the "
                 "iterable in sorted(...) to pin it.")

    def begin_module(self, ctx: ModuleContext) -> None:
        """Collect names/attributes annotated as set-typed."""
        self._set_names: Set[str] = set()
        self._set_attrs: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AnnAssign) and \
                    self._is_set_annotation(node.annotation):
                if isinstance(node.target, ast.Name):
                    self._set_names.add(node.target.id)
                elif isinstance(node.target, ast.Attribute):
                    self._set_attrs.add(node.target.attr)
            elif isinstance(node, ast.arg) and node.annotation is not None \
                    and self._is_set_annotation(node.annotation):
                self._set_names.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.returns is not None \
                    and self._is_set_annotation(node.returns):
                self._set_attrs.add(node.name)

    @staticmethod
    def _is_set_annotation(annotation: ast.AST) -> bool:
        text = ast.unparse(annotation)
        return text in ("set", "frozenset", "Set", "FrozenSet") or \
            any(marker in text for marker in _SET_ANNOTATION_MARKERS)

    def _flag_if_set(self, iterable: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(iterable, ast.Set):
            what = "a set literal"
        elif isinstance(iterable, ast.Call) and \
                isinstance(iterable.func, ast.Name) and \
                iterable.func.id in ("set", "frozenset"):
            what = f"{iterable.func.id}(...)"
        elif isinstance(iterable, ast.Name) and \
                iterable.id in self._set_names:
            what = f"set-typed {iterable.id!r}"
        elif isinstance(iterable, ast.Attribute) and \
                iterable.attr in self._set_attrs:
            what = f"set-typed .{iterable.attr}"
        else:
            return
        ctx.report(self, iterable,
                   f"iteration over {what} has hash-seed-dependent order; "
                   "wrap in sorted(...) before it feeds behaviour")

    def visit_For(self, node: ast.For, ctx: ModuleContext) -> None:
        """Flag ``for`` loops whose iterable is a set."""
        self._flag_if_set(node.iter, ctx)

    def visit_comprehension(self, node: ast.comprehension,
                            ctx: ModuleContext) -> None:
        """Flag comprehensions whose iterable is a set."""
        self._flag_if_set(node.iter, ctx)
