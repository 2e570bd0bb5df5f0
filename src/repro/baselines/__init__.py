"""Comparison policies: naive (UNO-style), noop, random, greedy, scale-out."""

from .._lazy import lazy_exports

__all__ = [
    "GreedyBorderPolicy",
    "NaiveConfig",
    "NaivePolicy",
    "NoopPolicy",
    "RandomPolicy",
    "ScaleOutFallbackPolicy",
    "ScaleOutPlan",
    "plan_scaleout",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "GreedyBorderPolicy": "greedy_border",
    "NaiveConfig": "naive",
    "NaivePolicy": "naive",
    "NoopPolicy": "noop",
    "RandomPolicy": "random_policy",
    "ScaleOutFallbackPolicy": "scaleout",
    "ScaleOutPlan": "scaleout",
    "plan_scaleout": "scaleout",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
