"""Service-chain substrate: NF profiles, chains, and placements."""

from .._lazy import lazy_exports

__all__ = [
    "AtMostOne",
    "ChainBuilder",
    "DEFAULT_SFC_RULES",
    "DeviceKind",
    "EGRESS",
    "Edge",
    "GraphPlacement",
    "INGRESS",
    "NFInstanceId",
    "NFKind",
    "MustBeEdge",
    "MustPrecede",
    "NFProfile",
    "Placement",
    "Segment",
    "ServiceChain",
    "Rule",
    "ServiceGraph",
    "Violation",
    "catalog",
    "render_placement",
    "check_chain",
    "validate_chain",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "catalog": "catalog",
    "ChainBuilder": "builder",
    "DEFAULT_SFC_RULES": "constraints",
    "AtMostOne": "constraints",
    "MustBeEdge": "constraints",
    "MustPrecede": "constraints",
    "Rule": "constraints",
    "Violation": "constraints",
    "check_chain": "constraints",
    "validate_chain": "constraints",
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
