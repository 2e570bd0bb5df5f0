"""PAM: push-aside migration for SmartNIC-accelerated NFV service chains.

A from-scratch reproduction of *"PAM: When Overloaded, Push Your
Neighbor Aside!"* (Meng et al., SIGCOMM 2018 Posters & Demos) on a
discrete-event simulation of a SmartNIC + CPU NFV server.

Quick tour
----------
>>> from repro import harness, core
>>> scenario = harness.figure1()
>>> plan = core.select(scenario.placement, scenario.throughput_bps)
>>> plan.migrated_names
['logger']
>>> plan.total_crossing_delta
0

See ``examples/quickstart.py`` for the full simulate-and-compare flow.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CapacityError",
    "ConfigurationError",
    "InfeasiblePlanError",
    "MigrationError",
    "PlacementError",
    "ReproError",
    "ScaleOutRequired",
    "SchedulingError",
    "SimulationError",
    "UnknownNFError",
    "analysis",
    "baselines",
    "chain",
    "core",
    "devices",
    "harness",
    "migration",
    "resources",
    "sim",
    "telemetry",
    "traffic",
    "units",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "analysis": "analysis",
    "baselines": "baselines",
    "chain": "chain",
    "core": "core",
    "devices": "devices",
    "harness": "harness",
    "migration": "migration",
    "resources": "resources",
    "sim": "sim",
    "telemetry": "telemetry",
    "traffic": "traffic",
    "units": "units",
    "CapacityError": "errors",
    "ConfigurationError": "errors",
    "InfeasiblePlanError": "errors",
    "MigrationError": "errors",
    "PlacementError": "errors",
    "ReproError": "errors",
    "ScaleOutRequired": "errors",
    "SchedulingError": "errors",
    "SimulationError": "errors",
    "UnknownNFError": "errors",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
