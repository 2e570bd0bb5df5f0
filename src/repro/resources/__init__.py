"""Resource model: linear utilisation (CoCo-style) and capacity tables."""

from .._lazy import lazy_exports

__all__ = ["CapacityTable", "DeviceLoad", "LoadModel"]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "CapacityTable": "capacity",
    "DeviceLoad": "model",
    "LoadModel": "model",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
