"""Simulated hardware: SmartNIC, CPU, PCIe link, and the server aggregate."""

from .._lazy import lazy_exports

__all__ = [
    "CPU",
    "DEFAULT_CROSSING_LATENCY_S",
    "DEFAULT_PCIE_BANDWIDTH_BPS",
    "DEFAULT_RECONFIGURATION_S",
    "Device",
    "FPGASmartNIC",
    "PAPER_TESTBED",
    "PCIeLink",
    "PCIeStats",
    "Server",
    "ServerProfile",
    "SmartNIC",
    "fpga_cost_model",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "CPU": "cpu",
    "Device": "device",
    "DEFAULT_RECONFIGURATION_S": "fpga",
    "FPGASmartNIC": "fpga",
    "fpga_cost_model": "fpga",
    "DEFAULT_CROSSING_LATENCY_S": "pcie",
    "DEFAULT_PCIE_BANDWIDTH_BPS": "pcie",
    "PCIeLink": "pcie",
    "PCIeStats": "pcie",
    "PAPER_TESTBED": "server",
    "Server": "server",
    "ServerProfile": "server",
    "SmartNIC": "smartnic",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
