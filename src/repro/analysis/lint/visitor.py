"""The AST-walking core: module context, rule base class, registry.

A :class:`LintRule` declares a ``code`` (``DET101``), a default
:class:`~repro.analysis.lint.findings.Severity`, and any number of
``visit_<NodeName>`` hooks.  :class:`LintVisitor` walks a module's AST
once, dispatching every node to every rule that handles its type, so a
battery of rules costs a single traversal.

Rules see a :class:`ModuleContext` giving the file path, the dotted
module name (when the file lives under ``src/repro``), source lines,
and a parent map for upward navigation — enough to express "a literal
directly under a multiplication" or "a call inside a sort key".
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Type

from .findings import Finding, Severity


@dataclass
class ModuleContext:
    """Everything a rule may inspect about the module under analysis."""

    path: str
    source: str
    tree: ast.Module
    #: Dotted module name (``repro.sim.engine``) when the file is inside
    #: a ``repro`` package tree; ``None`` for loose scripts.
    module: Optional[str] = None
    lines: List[str] = field(default_factory=list)
    _parents: Dict[int, ast.AST] = field(default_factory=dict)
    _findings: List[Finding] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    # -- navigation ---------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module root)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def line_text(self, line: int) -> str:
        """The stripped source text of 1-based ``line`` (empty if absent)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # -- reporting ----------------------------------------------------------

    def report(self, rule: "LintRule", node: ast.AST, message: str,
               severity: Optional[Severity] = None) -> None:
        """Record one finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self._findings.append(Finding(
            path=self.path, line=line, col=col + 1,
            rule=rule.code,
            severity=severity if severity is not None else rule.severity,
            message=message, context=self.line_text(line)))

    @property
    def findings(self) -> List[Finding]:
        """Findings reported so far, in source order."""
        return sorted(self._findings)


class LintRule:
    """Base class; subclasses register themselves via :func:`register`."""

    code: str = ""
    name: str = ""
    severity: Severity = Severity.WARNING
    #: One-paragraph simulator-facing rationale (surfaced in docs/CLI).
    rationale: str = ""

    def begin_module(self, ctx: ModuleContext) -> None:
        """Hook run before traversal; collect module-level facts here."""

    def handlers(self) -> Dict[str, Callable[[ast.AST, ModuleContext], None]]:
        """Map AST node-class names to this rule's visit hooks."""
        found: Dict[str, Callable[[ast.AST, ModuleContext], None]] = {}
        for attribute in dir(self):
            if attribute.startswith("visit_"):
                found[attribute[len("visit_"):]] = getattr(self, attribute)
        return found


#: Registry of every known rule, keyed by code.
RULE_REGISTRY: Dict[str, Type[LintRule]] = {}


def register(rule_class: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.code:
        raise ValueError(f"{rule_class.__name__} has no code")
    if rule_class.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {rule_class.code}")
    RULE_REGISTRY[rule_class.code] = rule_class
    return rule_class


def all_rules() -> List[LintRule]:
    """Fresh instances of every registered rule, ordered by code."""
    # Importing the rule modules populates the registry exactly once.
    for module in ("rules_determinism", "rules_events", "rules_exceptions",
                   "rules_units", "suppress"):
        importlib.import_module(f"{__package__}.{module}")
    return [RULE_REGISTRY[code]() for code in sorted(RULE_REGISTRY)]


class LintVisitor:
    """Single-pass dispatcher of one module's AST to many rules."""

    def __init__(self, rules: List[LintRule]) -> None:
        self.rules = rules
        self._dispatch: Dict[str, List[
            Callable[[ast.AST, ModuleContext], None]]] = {}
        for rule in rules:
            for node_name, handler in rule.handlers().items():
                self._dispatch.setdefault(node_name, []).append(handler)

    def run(self, ctx: ModuleContext) -> List[Finding]:
        """Walk the module once, returning the findings in source order."""
        for parent in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(parent):
                ctx._parents[id(child)] = parent
        for rule in self.rules:
            rule.begin_module(ctx)
        for node in ast.walk(ctx.tree):
            handlers = self._dispatch.get(type(node).__name__)
            if not handlers:
                continue
            for handler in handlers:
                handler(node, ctx)
        return ctx.findings


def module_name_for(path: Path) -> Optional[str]:
    """Guess the dotted module name from a filesystem path.

    Recognises any ``.../repro/...`` package layout (``src/repro/...``
    in this repository) and returns e.g. ``repro.sim.engine``.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" not in parts:
        return None
    start = len(parts) - 1 - parts[::-1].index("repro")
    dotted = parts[start:]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render an attribute chain (``datetime.datetime.now``) as text."""
    names: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        names.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        names.append(current.id)
        return ".".join(reversed(names))
    return None
