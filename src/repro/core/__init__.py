"""The paper's contribution: border identification, PAM selection, planning."""

from .border import BorderSets, border_sets
from . import graph_pam
from .feasibility import FeasibilityConfig, both_overloaded, nic_alleviated
from .operator import HardenedController, HardeningConfig
from .pam import PAMConfig, select
from .plan import MigrationAction, MigrationPlan
from .planner import MigrationController, PAMPolicy, SelectionPolicy
from .reverse import PullbackConfig, select_pullback

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
