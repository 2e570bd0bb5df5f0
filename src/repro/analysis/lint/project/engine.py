"""Project-rule base class, registry, and the project-lint driver.

Project rules consume a finished :class:`~.dataflow.ProjectAnalysis`
(summaries at fixpoint plus the final round's observations) instead of
visiting ASTs; they share the per-file framework's ``code`` / ``name``
/ ``severity`` / ``rationale`` contract so ``--list-rules``, inline
``noqa`` suppression, and the justified baseline treat both kinds
identically.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ....errors import AnalysisError
from ..findings import Finding, PARSE_ERROR_RULE, Severity
from ..visitor import LintRule
from .dataflow import ProjectAnalysis, analyze_project
from .loader import ModuleInfo, Project, build_project


class ProjectRule(LintRule):
    """Base for whole-program rules (FLOW5xx, UNIT21x, JRN601)."""

    def check(self, analysis: ProjectAnalysis,
              ctx: "ProjectContext") -> None:
        """Inspect the analysis; report findings through ``ctx``."""
        raise NotImplementedError


#: Registry of whole-program rules, keyed by code.
PROJECT_RULE_REGISTRY: Dict[str, Type[ProjectRule]] = {}


def register_project(rule_class: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a project rule to the registry."""
    if not rule_class.code:
        raise ValueError(f"{rule_class.__name__} has no code")
    if rule_class.code in PROJECT_RULE_REGISTRY:
        raise ValueError(f"duplicate project rule {rule_class.code}")
    PROJECT_RULE_REGISTRY[rule_class.code] = rule_class
    return rule_class


def all_project_rules() -> List[ProjectRule]:
    """Fresh instances of every project rule, ordered by code."""
    # Importing the rule modules populates the registry exactly once.
    for module in ("rules_flow", "rules_journal", "rules_unitflow"):
        importlib.import_module(f"{__package__}.{module}")
    return [PROJECT_RULE_REGISTRY[code]()
            for code in sorted(PROJECT_RULE_REGISTRY)]


def project_rule_codes() -> List[str]:
    """Every registered project-rule code (importing the rule modules)."""
    return [rule.code for rule in all_project_rules()]


class ProjectContext:
    """Finding collector for project rules (location from any module)."""

    def __init__(self) -> None:
        self._findings: List[Finding] = []

    def report(self, rule: ProjectRule, module: ModuleInfo, node: ast.AST,
               message: str, severity: Optional[Severity] = None) -> None:
        """Record one finding anchored at ``node`` in ``module``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        lines = module.source.splitlines()
        context = lines[line - 1].strip() if 1 <= line <= len(lines) else ""
        self._findings.append(Finding(
            path=module.path, line=line, col=col + 1, rule=rule.code,
            severity=severity if severity is not None else rule.severity,
            message=message, context=context))

    @property
    def findings(self) -> List[Finding]:
        """Deduplicated findings in source order."""
        return sorted(set(self._findings))


def parse_files(files: Sequence[Path]) -> Tuple[
        List[Tuple[Path, str, ast.Module]], List[Finding]]:
    """Parse every file; syntax failures become E000 findings."""
    parsed: List[Tuple[Path, str, ast.Module]] = []
    errors: List[Finding] = []
    for path in files:
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            col = getattr(exc, "offset", None) or 1
            detail = getattr(exc, "msg", None) or str(exc)
            errors.append(Finding(
                path=path.as_posix(), line=line, col=col,
                rule=PARSE_ERROR_RULE, severity=Severity.ERROR,
                message=f"cannot parse file: {detail}", context=""))
            continue
        parsed.append((path, source, tree))
    return parsed, errors


def analyze_files(files: Sequence[Path]) -> ProjectAnalysis:
    """Load + summarize a file set (unparseable files are skipped)."""
    parsed, _ = parse_files(files)
    return analyze_project(build_project(parsed))


def run_project_rules(analysis: ProjectAnalysis) -> List[Finding]:
    """Run every registered project rule over one finished analysis."""
    ctx = ProjectContext()
    for rule in all_project_rules():
        rule.check(analysis, ctx)
    return ctx.findings


def lint_project_files(files: Sequence[Path]) -> List[Finding]:
    """End to end: parse, fixpoint-analyze, run project rules."""
    return run_project_rules(analyze_files(files))


def project_for(analysis: ProjectAnalysis) -> Project:
    """Convenience accessor used by rule tests."""
    return analysis.project
