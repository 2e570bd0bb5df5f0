"""Discrete-event simulator: engine, stations, network, and the runner."""

from .._lazy import lazy_exports

__all__ = [
    "COMPONENTS",
    "ChainNetwork",
    "Controller",
    "Engine",
    "FaultEvent",
    "FaultInjector",
    "EventQueue",
    "LatencyLedger",
    "NFStation",
    "PRIORITY_CONTROL",
    "PRIORITY_DATA",
    "PacketQueue",
    "QueueStats",
    "SimulationResult",
    "SimulationRunner",
    "TickContext",
    "simulate",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "Engine": "engine",
    "FaultEvent": "faults",
    "FaultInjector": "faults",
    "EventQueue": "events",
    "PRIORITY_CONTROL": "events",
    "PRIORITY_DATA": "events",
    "COMPONENTS": "latency",
    "LatencyLedger": "latency",
    "ChainNetwork": "network",
    "NFStation": "nfinstance",
    "PacketQueue": "queues",
    "QueueStats": "queues",
    "Controller": "runner",
    "SimulationResult": "runner",
    "SimulationRunner": "runner",
    "TickContext": "runner",
    "simulate": "runner",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
