"""Multiple co-located service chains sharing one SmartNIC + CPU.

Planning lives here; a run hosts the chains on one
:class:`~repro.devices.server.Server` and drives them with
:class:`~repro.sim.runner.SimulationRunner`, whose
:class:`~repro.core.operator.HardenedController` executes a
:class:`MultiChainPlan` through the one migration executor.
"""

from .model import ChainLoad, MultiChainLoadModel
from .pam import MultiChainAction, MultiChainPlan
from .pam import select as select_multichain

__all__ = [
    "ChainLoad",
    "MultiChainAction",
    "MultiChainLoadModel",
    "MultiChainPlan",
    "select_multichain",
]
