"""Discrete-event simulator: engine, stations, network, and the runner."""

from .engine import Engine
from .faults import FaultEvent, FaultInjector
from .events import Event, EventQueue, PRIORITY_CONTROL, PRIORITY_DATA
from .latency import COMPONENTS, LatencyLedger, LatencyRecord
from .network import ChainNetwork
from .nfinstance import NFStation
from .queues import PacketQueue, QueueStats
from .runner import (Controller, SimulationResult, SimulationRunner,
                     TickContext, simulate)

__all__ = [
    "COMPONENTS",
    "ChainNetwork",
    "Controller",
    "Engine",
    "Event",
    "FaultEvent",
    "FaultInjector",
    "EventQueue",
    "LatencyLedger",
    "LatencyRecord",
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
