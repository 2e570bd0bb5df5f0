"""Closed-form analysis: latency prediction and capacity regimes.

The :mod:`repro.analysis.lint` subpackage adds source-level analysis —
the simulation-safety linter behind ``python -m repro lint``.  It is
not among this package's exports, so nothing but the linter itself
pays its AST-tooling cost; use ``from repro.analysis import lint``.
"""

from .._lazy import lazy_exports

__all__ = [
    "CapacityReport",
    "LatencyPrediction",
    "MAX_CHAIN_LENGTH",
    "MAX_PLACEMENT_CANDIDATES",
    "OptimisationResult",
    "PlacementSearchTruncated",
    "Regime",
    "capacity_report",
    "enumerate_placements",
    "explain_placement",
    "optimality_gap",
    "optimise_placement",
    "headroom_gained",
    "predict_crossing_penalty",
    "predict_latency",
    "predict_policy_gap",
    "rank_migration_candidates",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "explain_placement": "explain",
    "CapacityReport": "capacity_model",
    "Regime": "capacity_model",
    "capacity_report": "capacity_model",
    "headroom_gained": "capacity_model",
    "rank_migration_candidates": "capacity_model",
    "MAX_CHAIN_LENGTH": "placement_opt",
    "MAX_PLACEMENT_CANDIDATES": "placement_opt",
    "OptimisationResult": "placement_opt",
    "PlacementSearchTruncated": "placement_opt",
    "enumerate_placements": "placement_opt",
    "optimality_gap": "placement_opt",
    "optimise_placement": "placement_opt",
    "LatencyPrediction": "latency_model",
    "predict_crossing_penalty": "latency_model",
    "predict_latency": "latency_model",
    "predict_policy_gap": "latency_model",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
