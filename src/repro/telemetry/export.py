"""Exporting telemetry and per-packet data for external analysis.

Operators want raw series out of the simulator to plot elsewhere; CI
wants machine-readable artefacts.  Everything here writes plain CSV or
JSON-lines with stable headers — no pandas dependency.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from ..errors import ConfigurationError
from ..sim.latency import COMPONENTS
from ..traffic.packet import Packet
from .recorder import TimeSeriesRecorder


def series_to_csv(recorder: TimeSeriesRecorder,
                  path: Union[str, Path]) -> int:
    """Write every recorded series as ``series,time_s,value`` rows.

    Returns the number of data rows written.
    """
    names = recorder.names()
    if not names:
        raise ConfigurationError("recorder holds no series")
    lines = ["series,time_s,value"]
    for name in names:
        for sample in recorder.series(name):
            lines.append(f"{name},{sample.time_s!r},{sample.value!r}")
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines) - 1


def packets_to_jsonl(packets: Iterable[Packet],
                     path: Union[str, Path],
                     components: bool = False) -> int:
    """Write one JSON object per packet (outcome + latency breakdown).

    ``components`` adds one ``latency_<component>_s`` column per
    latency component.  Returns the number of packets written.
    """
    lines: List[str] = []
    for packet in packets:
        row = {
            "seq": packet.seq,
            "size_bytes": packet.size_bytes,
            "arrival_s": packet.arrival_s,
            "departure_s": packet.departure_s,
            "latency_s": packet.latency_s,
            "flow_id": packet.flow_id,
            "dropped_at": packet.dropped_at,
            "filtered_at": packet.filtered_at,
        }
        if components:
            for component in COMPONENTS:
                row[f"latency_{component}_s"] = getattr(packet, component)
        lines.append(json.dumps(row, sort_keys=True))
    if not lines:
        raise ConfigurationError("no packets to export")
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines)


def load_packets_jsonl(path: Union[str, Path]) -> List[dict]:
    """Read back a packets JSONL file as dictionaries."""
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{number}: invalid JSON ({exc})") from None
    if not rows:
        raise ConfigurationError(f"{path}: no rows")
    return rows
