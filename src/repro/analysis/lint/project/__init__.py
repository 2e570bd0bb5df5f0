"""Whole-program analysis layer for the simulation-safety linter.

Per-file rules (DET/UNIT/EVT/EXC) see one AST; this package sees the
program.  It loads every module under the lint roots
(:mod:`.loader`), resolves imports and calls (:mod:`.callgraph`),
computes per-function dataflow summaries to a fixpoint
(:mod:`.dataflow`), and runs three whole-program rule families on the
result:

* **FLOW5xx** seed provenance — every RNG seed must trace back to a
  parameter, a spec/config field, or ``seed_for(...)``;
* **UNIT21x** inter-procedural unit flow — ``_us``/``_s``/``_bps``
  suffix tags follow values across call boundaries;
* **JRN601** journal-payload purity — nothing derived from set order,
  ``id()``, wall clock, or non-canonical floats/keys may reach a
  write-ahead journal.

Run it as ``python -m repro lint --project`` (see
``docs/static-analysis.md`` for architecture and known limits).
"""

from ...._lazy import lazy_exports

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "FunctionSummary",
    "ModuleInfo",
    "PROJECT_RULE_REGISTRY",
    "Project",
    "ProjectAnalysis",
    "ProjectContext",
    "ProjectRule",
    "Tag",
    "all_project_rules",
    "analyze_files",
    "analyze_project",
    "build_callgraph",
    "build_project",
    "dump_callgraph",
    "dump_summaries",
    "lint_project_files",
    "load_module",
    "module_name_from_layout",
    "parse_files",
    "project_rule_codes",
    "register_project",
    "resolve_call",
    "run_project_rules",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "CallGraph": "callgraph",
    "CallSite": "callgraph",
    "build_callgraph": "callgraph",
    "dump_callgraph": "callgraph",
    "resolve_call": "callgraph",
    "FunctionSummary": "dataflow",
    "ProjectAnalysis": "dataflow",
    "Tag": "dataflow",
    "analyze_project": "dataflow",
    "dump_summaries": "dataflow",
    "PROJECT_RULE_REGISTRY": "engine",
    "ProjectContext": "engine",
    "ProjectRule": "engine",
    "all_project_rules": "engine",
    "analyze_files": "engine",
    "lint_project_files": "engine",
    "parse_files": "engine",
    "project_rule_codes": "engine",
    "register_project": "engine",
    "run_project_rules": "engine",
    "ClassInfo": "loader",
    "FunctionInfo": "loader",
    "ModuleInfo": "loader",
    "Project": "loader",
    "build_project": "loader",
    "load_module": "loader",
    "module_name_from_layout": "loader",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
