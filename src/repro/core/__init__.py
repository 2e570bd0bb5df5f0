"""The paper's contribution: border identification, PAM selection, planning."""

from .._lazy import lazy_exports

__all__ = [
    "BorderSets",
    "FeasibilityConfig",
    "HardenedController",
    "HardeningConfig",
    "MigrationAction",
    "MigrationController",
    "MigrationPlan",
    "PAMConfig",
    "PAMPolicy",
    "PullbackConfig",
    "SelectionPolicy",
    "border_sets",
    "graph_pam",
    "both_overloaded",
    "nic_alleviated",
    "select",
    "select_pullback",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "BorderSets": "border",
    "border_sets": "border",
    "graph_pam": "graph_pam",
    "FeasibilityConfig": "feasibility",
    "both_overloaded": "feasibility",
    "nic_alleviated": "feasibility",
    "HardenedController": "operator",
    "HardeningConfig": "operator",
    "PAMConfig": "pam",
    "select": "pam",
    "MigrationAction": "plan",
    "MigrationPlan": "plan",
    "MigrationController": "planner",
    "PAMPolicy": "planner",
    "SelectionPolicy": "planner",
    "PullbackConfig": "reverse",
    "select_pullback": "reverse",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
