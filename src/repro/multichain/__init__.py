"""Multiple co-located service chains sharing one SmartNIC + CPU.

Planning lives here; a run hosts the chains on one
:class:`~repro.devices.server.Server` and drives them with
:class:`~repro.sim.runner.SimulationRunner`, whose
:class:`~repro.core.operator.HardenedController` executes a
:class:`MultiChainPlan` through the one migration executor.
"""

from .._lazy import lazy_exports

__all__ = [
    "ChainLoad",
    "MultiChainAction",
    "MultiChainLoadModel",
    "MultiChainPlan",
    "select_multichain",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "ChainLoad": "model",
    "MultiChainLoadModel": "model",
    "MultiChainAction": "pam",
    "MultiChainPlan": "pam",
    "select_multichain": "pam:select",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
