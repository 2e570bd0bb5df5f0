"""Workload substrate: packets, flows, arrival processes, load profiles."""

from .._lazy import lazy_exports

__all__ = [
    "ConstantBitRate",
    "FiveTuple",
    "FixedSize",
    "FlowTable",
    "IMixSize",
    "OnOffBursts",
    "PAPER_SIZE_SWEEP",
    "PacketTrace",
    "Packet",
    "PoissonArrivals",
    "ProfiledArrivals",
    "RampArrivals",
    "RateProfile",
    "SizeDistribution",
    "TraceEntry",
    "TraceReplay",
    "TrafficGenerator",
    "UniformSize",
    "cbr_64_to_1500",
    "constant",
    "diurnal",
    "record",
    "sawtooth",
    "spike",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "FiveTuple": "flows",
    "FlowTable": "flows",
    "ConstantBitRate": "generators",
    "OnOffBursts": "generators",
    "PoissonArrivals": "generators",
    "RampArrivals": "generators",
    "TrafficGenerator": "generators",
    "cbr_64_to_1500": "generators",
    "PAPER_SIZE_SWEEP": "packet",
    "FixedSize": "packet",
    "IMixSize": "packet",
    "Packet": "packet",
    "SizeDistribution": "packet",
    "UniformSize": "packet",
    "PacketTrace": "trace",
    "TraceEntry": "trace",
    "TraceReplay": "trace",
    "record": "trace",
    "ProfiledArrivals": "patterns",
    "RateProfile": "patterns",
    "constant": "patterns",
    "diurnal": "patterns",
    "sawtooth": "patterns",
    "spike": "patterns",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
