"""Drive the linter over files and format the results.

:func:`lint_paths` is the programmatic entry point the CLI wraps: it
collects ``.py`` files, parses each, runs every registered rule in one
AST pass, then applies inline suppressions and the committed baseline.
With ``project=True`` it additionally feeds the whole file set through
the :mod:`~repro.analysis.lint.project` fixpoint analysis and merges
the FLOW/UNIT21x/JRN findings in before suppression, so one noqa /
baseline mechanism covers both rule kinds.  ``report_on`` restricts
*reporting* (not analysis) to a path subset — the ``--changed``
incremental mode.  Unparseable files become ``E000`` findings
(reporting the offending file and position) rather than tracebacks;
nonexistent paths raise :class:`~repro.errors.AnalysisError`, which
the CLI turns into a clean non-zero exit.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from ...errors import AnalysisError
from .baseline import Baseline, BaselineEntry
from .findings import PARSE_ERROR_RULE, Finding, Severity
from .suppress import apply_suppressions
from .visitor import (LintRule, LintVisitor, ModuleContext, all_rules,
                      module_name_for)

PathLike = Union[str, Path]


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding]
    files_checked: int
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)

    def worst(self) -> Optional[Severity]:
        """The highest severity among reported findings."""
        return max((f.severity for f in self.findings), default=None)

    def exit_code(self, fail_on: Severity) -> int:
        """0 when no finding reaches ``fail_on``, 1 otherwise."""
        worst = self.worst()
        return 1 if worst is not None and worst >= fail_on else 0

    def counts(self) -> str:
        """``N errors, M warnings`` summary text."""
        errors = sum(1 for f in self.findings
                     if f.severity is Severity.ERROR)
        warnings = sum(1 for f in self.findings
                       if f.severity is Severity.WARNING)
        return f"{errors} error(s), {warnings} warning(s)"


def collect_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Raises :class:`AnalysisError` naming the first nonexistent path.
    """
    if not paths:
        raise AnalysisError("no paths given to lint")
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            raise AnalysisError(f"lint target does not exist: {path}")
    unique: List[Path] = []
    seen = set()
    for path in files:
        key = str(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def visit_source(source: str, path: str = "<string>",
                 rules: Optional[List[LintRule]] = None) -> List[Finding]:
    """Parse + run per-file rules, *without* applying suppressions."""
    active_rules = rules if rules is not None else all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = (getattr(exc, "offset", None) or 1)
        detail = getattr(exc, "msg", None) or str(exc)
        return [Finding(path=path, line=line, col=col,
                        rule=PARSE_ERROR_RULE, severity=Severity.ERROR,
                        message=f"cannot parse file: {detail}",
                        context="")]
    ctx = ModuleContext(path=path, source=source, tree=tree,
                        module=module_name_for(Path(path)))
    return LintVisitor(active_rules).run(ctx)


def lint_source(source: str, path: str = "<string>",
                rules: Optional[List[LintRule]] = None) -> List[Finding]:
    """Lint one source string: parse, run rules, apply inline noqa.

    Unused-noqa meta-findings (SUP001) are included in the result.
    """
    active_rules = rules if rules is not None else all_rules()
    raw = visit_source(source, path=path, rules=active_rules)
    kept, _, unused = apply_suppressions(
        source, path, raw, {rule.code for rule in active_rules})
    return sorted(kept + unused)


def lint_paths(paths: Sequence[PathLike],
               baseline: Optional[Baseline] = None,
               rules: Optional[List[LintRule]] = None,
               project: bool = False,
               report_on: Optional[Set[str]] = None) -> LintReport:
    """Lint every file under ``paths`` and apply the baseline, if any.

    ``project=True`` adds the whole-program FLOW/UNIT21x/JRN rules,
    analysed over the *entire* file set.  ``report_on`` (resolved POSIX
    paths) restricts which files' findings are reported; analysis still
    covers everything so cross-file findings stay accurate.
    """
    active_rules = rules if rules is not None else all_rules()
    files = collect_files(paths)
    sources: Dict[str, str] = {}
    raw_by_file: Dict[str, List[Finding]] = {}
    for file_path in files:
        try:
            source = file_path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise AnalysisError(
                f"cannot read {file_path}: {exc}") from exc
        key = file_path.as_posix()
        sources[key] = source
        raw_by_file[key] = visit_source(source, path=key,
                                        rules=active_rules)
    active_codes = {rule.code for rule in active_rules}
    if project:
        from .project.engine import (lint_project_files,
                                     project_rule_codes)
        active_codes.update(project_rule_codes())
        for finding in lint_project_files(files):
            raw_by_file.setdefault(finding.path, []).append(finding)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for key in sorted(raw_by_file):
        kept, absorbed, unused = apply_suppressions(
            sources.get(key, ""), key, raw_by_file[key], active_codes)
        findings.extend(kept)
        findings.extend(unused)
        suppressed.extend(absorbed)
    reported_paths = {f.as_posix() for f in files}
    if report_on is not None:
        resolved = {key: Path(key).resolve().as_posix()
                    for key in sources}
        findings = [f for f in findings
                    if resolved.get(f.path, f.path) in report_on]
        reported_paths = {key for key in reported_paths
                          if resolved.get(key, key) in report_on}
    report = LintReport(findings=sorted(findings),
                        files_checked=len(reported_paths),
                        suppressed=sorted(suppressed))
    if baseline is not None:
        result = baseline.apply(
            report.findings, checked_paths=reported_paths,
            active_rules=active_codes)
        report.findings = result.kept
        report.baselined = result.absorbed
        report.stale_baseline = result.unmatched
    return report


def format_text(report: LintReport) -> str:
    """Human-readable output: one line per finding plus a summary."""
    lines = [finding.render() for finding in report.findings]
    lines.append(f"checked {report.files_checked} file(s): "
                 f"{report.counts()}")
    if report.baselined:
        lines.append(f"({len(report.baselined)} finding(s) absorbed by "
                     "the baseline)")
    for entry in report.stale_baseline:
        lines.append(f"stale baseline entry: {entry.rule} at "
                     f"{entry.path} ({entry.context!r}) matches nothing "
                     "- prune it")
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Machine-readable output with a stable schema."""
    payload = {
        "version": 1,
        "files_checked": report.files_checked,
        "findings": [f.to_json() for f in report.findings],
        "baselined": len(report.baselined),
        "stale_baseline": [
            {"rule": entry.rule, "path": entry.path,
             "context": entry.context, "reason": entry.reason}
            for entry in report.stale_baseline],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def rule_catalogue(rules: Optional[Iterable[LintRule]] = None) -> str:
    """One line per registered rule: code, name, severity, rationale.

    The default catalogue covers both rule kinds — per-file visitors
    and whole-program project rules — sorted by code.
    """
    if rules is not None:
        active: List[LintRule] = list(rules)
    else:
        from .project.engine import all_project_rules
        active = sorted(all_rules() + list(all_project_rules()),
                        key=lambda rule: rule.code)
    lines = []
    for rule in active:
        lines.append(f"{rule.code}  {rule.name:<20} "
                     f"[{rule.severity}] {rule.rationale}")
    return "\n".join(lines)
