"""One-call placement explanation: the operator's "why" report.

Pulls together the analyses scattered across the library into a single
human-readable document for a (placement, offered-load) pair:

* the two-lane diagram with crossings,
* per-device utilisation and headroom,
* the capacity knees and current operating regime,
* the border sets and what PAM would do right now,
* the closed-form latency breakdown.

Used by the CLI (``python -m repro explain``) and handy in notebooks.
"""

from __future__ import annotations

from typing import List, Optional

from ..chain.diagram import render_placement
from ..chain.placement import Placement
from ..core.border import border_sets
from ..core.pam import select as pam_select
from ..devices.server import ServerProfile
from ..errors import ScaleOutRequired
from ..resources.model import LoadModel
from ..units import as_gbps, as_usec
from .capacity_model import capacity_report
from .latency_model import predict_latency


def explain_placement(placement: Placement, offered_bps: float,
                      packet_bytes: int = 256,
                      server_profile: Optional[ServerProfile] = None
                      ) -> str:
    """A multi-section text report for one placement at one load."""
    lines: List[str] = []
    lines.append(render_placement(placement))
    lines.append("")

    load = LoadModel(placement, offered_bps)
    nic = load.nic_load()
    cpu = load.cpu_load()
    report = capacity_report(placement)
    regime = report.regime_at(offered_bps)
    lines.append(f"offered load: {as_gbps(offered_bps):.2f} Gbps "
                 f"({regime.value})")
    lines.append(f"  SmartNIC: {nic.utilisation:.2f} utilised "
                 f"(knee {as_gbps(report.nic_knee_bps):.2f} Gbps)")
    lines.append(f"  CPU:      {cpu.utilisation:.2f} utilised "
                 f"(knee {as_gbps(report.cpu_knee_bps):.2f} Gbps)")
    lines.append("")

    sets = border_sets(placement)
    lines.append(f"border vNFs: left={sorted(sets.left) or '-'} "
                 f"right={sorted(sets.right) or '-'}")
    if nic.overloaded:
        try:
            plan = pam_select(placement, offered_bps, strict=True)
            moves = ", ".join(plan.migrated_names)
            lines.append(f"PAM now: push {moves} aside "
                         f"(crossing delta {plan.total_crossing_delta:+d})")
        except ScaleOutRequired:
            lines.append("PAM now: no border fits the CPU — scale out "
                         "per OpenNF")
    else:
        lines.append("PAM now: nothing to do (SmartNIC has headroom)")
    lines.append("")

    prediction = predict_latency(placement, packet_bytes, server_profile)
    lines.append(f"closed-form latency at {packet_bytes} B "
                 f"(light load): {as_usec(prediction.total_s):.1f} us")
    lines.append(f"  wire {as_usec(prediction.wire_s):.1f} us | "
                 f"processing {as_usec(prediction.processing_s):.1f} us | "
                 f"pcie {as_usec(prediction.pcie_s):.1f} us "
                 f"({prediction.crossings} crossings)")
    return "\n".join(lines)
