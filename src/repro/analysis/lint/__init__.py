"""Simulation-safety static analysis for the PAM reproduction.

An AST-based lint framework plus a battery of simulator-specific rules:

* **DET1xx determinism** — unseeded RNGs, the shared module-level
  ``random`` generator, wall-clock reads, ``id()``/``hash()`` ordering,
  hash-order set iteration;
* **UNIT2xx unit hygiene** — raw power-of-ten conversion factors,
  expressions mixing ``_s``/``_us``/``_bps`` suffixes, float ``==`` on
  simulated time;
* **EVT3xx event safety** — ``heapq`` outside the scheduler modules
  (:mod:`repro.sim.events`, :mod:`repro.sim.engine`), handler code
  touching scheduler internals;
* **EXC4xx exception hygiene** — bare/broad ``except`` that can swallow
  :mod:`repro.errors` signals.

On top of the per-file battery sits a whole-program layer
(:mod:`repro.analysis.lint.project`): module loading + import
resolution, a call graph, and per-function dataflow summaries computed
to a fixpoint, powering **FLOW5xx** seed provenance, **UNIT21x**
inter-procedural unit flow, and **JRN601** journal-payload purity.

Run it as ``python -m repro lint`` (add ``--project`` for the
whole-program rules, ``--changed`` for git-scoped reporting,
``--format sarif`` for code-scanning upload) or programmatically via
:func:`lint_paths`.  Findings suppress inline with
``# repro: noqa[RULE]`` (dead markers earn a **SUP001**) and
pre-existing ones live in a committed, per-entry-justified baseline
(:mod:`repro.analysis.lint.baseline`).
"""

from ..._lazy import lazy_exports

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintReport",
    "LintRule",
    "LintVisitor",
    "ModuleContext",
    "PARSE_ERROR_RULE",
    "RULE_REGISTRY",
    "Severity",
    "all_rules",
    "apply_suppressions",
    "collect_files",
    "format_json",
    "format_sarif",
    "format_text",
    "lint_paths",
    "lint_source",
    "register",
    "rule_catalogue",
    "visit_source",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "Baseline": "baseline",
    "BaselineEntry": "baseline",
    "DEFAULT_BASELINE_NAME": "baseline",
    "PARSE_ERROR_RULE": "findings",
    "Finding": "findings",
    "Severity": "findings",
    "LintReport": "runner",
    "collect_files": "runner",
    "format_json": "runner",
    "format_text": "runner",
    "lint_paths": "runner",
    "lint_source": "runner",
    "rule_catalogue": "runner",
    "visit_source": "runner",
    "format_sarif": "sarif",
    "apply_suppressions": "suppress",
    "LintRule": "visitor",
    "LintVisitor": "visitor",
    "ModuleContext": "visitor",
    "RULE_REGISTRY": "visitor",
    "all_rules": "visitor",
    "register": "visitor",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
