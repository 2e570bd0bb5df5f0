"""PAM over service graphs (the NFP-style generalisation).

On a chain, border vNFs are exactly the NFs whose migration adds no
PCIe crossings.  On a graph, that geometric definition is the one that
survives: a candidate is any SmartNIC NF whose move to the CPU does not
increase the *expected* crossings per packet
(:meth:`~repro.chain.graph.GraphPlacement.crossing_delta` <= 0 within
float tolerance).  Selection then proceeds exactly like chain PAM —
minimum theta^S first, CPU headroom check (Eq. 2 with share-weighted
throughput), stop when the NIC is alleviated (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..chain.graph import GraphPlacement
from ..chain.nf import DeviceKind
from ..errors import ScaleOutRequired
from ..units import gbps
from .pam import MAX_MIGRATIONS

POLICY_NAME = "pam-graph"

#: Numerical slack on the "adds no crossings" test.
_DELTA_TOL = 1e-9


@dataclass(frozen=True)
class GraphAction:
    """One NF move on the graph."""

    nf_name: str
    target: DeviceKind
    crossing_delta: float


@dataclass(frozen=True)
class GraphPlan:
    """Moves plus before/after placements and predicted outcome."""

    actions: Tuple[GraphAction, ...]
    before: GraphPlacement
    after: GraphPlacement
    alleviates: bool
    notes: Tuple[str, ...] = ()

    @property
    def is_noop(self) -> bool:
        """Whether the plan moves nothing."""
        return not self.actions

    @property
    def migrated_names(self) -> List[str]:
        """Names moved, in order."""
        return [action.nf_name for action in self.actions]

    @property
    def total_crossing_delta(self) -> float:
        """Net expected-crossings change."""
        return (self.after.expected_crossings()
                - self.before.expected_crossings())


def device_utilisation(placement: GraphPlacement, device: DeviceKind,
                       throughput_bps: float) -> float:
    """Share-weighted utilisation of ``device`` (the graph Eq. sums)."""
    graph = placement.graph
    return sum(
        graph.node_share(nf.name) * throughput_bps / nf.capacity_on(device)
        for nf in placement.on_device(device))


def select(placement: GraphPlacement, throughput_bps: float,
           strict: bool = True) -> GraphPlan:
    """Run graph PAM for one overload episode."""
    nic_util = device_utilisation(placement, DeviceKind.SMARTNIC,
                                  throughput_bps)
    if nic_util < 1.0:
        return GraphPlan(actions=(), before=placement, after=placement,
                         alleviates=True,
                         notes=("smartnic not overloaded",))

    actions: List[GraphAction] = []
    notes: List[str] = []
    current = placement
    rejected: set = set()
    alleviates = False

    while len(actions) < MAX_MIGRATIONS:
        candidates = []
        for nf in current.nic_nfs():
            if nf.name in rejected or not nf.cpu_capable:
                continue
            delta = current.crossing_delta(nf.name, DeviceKind.CPU)
            if delta <= _DELTA_TOL:
                candidates.append((nf.nic_capacity_bps, nf.name, delta))
        if not candidates:
            notes.append("border pool exhausted before alleviation")
            break
        candidates.sort()
        __, b0_name, delta = candidates[0]
        b0 = current.graph.get(b0_name)
        share = current.graph.node_share(b0_name)
        cpu_after = (device_utilisation(current, DeviceKind.CPU,
                                        throughput_bps)
                     + share * throughput_bps / b0.cpu_capacity_bps)
        if cpu_after >= 1.0:
            notes.append(f"eq2 rejects {b0_name}")
            rejected.add(b0_name)
            continue
        moved = current.moved(b0_name, DeviceKind.CPU)
        actions.append(GraphAction(nf_name=b0_name,
                                   target=DeviceKind.CPU,
                                   crossing_delta=delta))
        current = moved
        if device_utilisation(current, DeviceKind.SMARTNIC,
                              throughput_bps) < 1.0:
            alleviates = True
            notes.append(f"alleviated after migrating {b0_name}")
            break

    plan = GraphPlan(actions=tuple(actions), before=placement,
                     after=current, alleviates=alleviates,
                     notes=tuple(notes))
    if not alleviates and strict:
        raise ScaleOutRequired(
            "graph PAM cannot alleviate the SmartNIC",
            nic_utilisation=device_utilisation(
                current, DeviceKind.SMARTNIC, throughput_bps),
            cpu_utilisation=device_utilisation(
                current, DeviceKind.CPU, throughput_bps))
    return plan
