"""Service-chain substrate: NF profiles, chains, and placements."""

from .._lazy import lazy_exports

__all__ = [
    "ChainBuilder",
    "DeviceKind",
    "EGRESS",
    "Edge",
    "GraphPlacement",
    "INGRESS",
    "NFInstanceId",
    "NFKind",
    "NFProfile",
    "Placement",
    "Segment",
    "ServiceChain",
    "ServiceGraph",
    "catalog",
    "render_placement",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "catalog": "catalog",
    "ChainBuilder": "builder",
    "ServiceChain": "chain",
    "render_placement": "diagram",
    "EGRESS": "graph",
    "INGRESS": "graph",
    "Edge": "graph",
    "GraphPlacement": "graph",
    "ServiceGraph": "graph",
    "DeviceKind": "nf",
    "NFInstanceId": "nf",
    "NFKind": "nf",
    "NFProfile": "nf",
    "Placement": "placement",
    "Segment": "placement",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
