"""Invariants a fault-tolerant run must uphold, however hostile the run.

Each check inspects the end state of a fully drained simulation (run
the engine to exhaustion first — the chaos runner does) and returns
human-readable violations.  The list is the contract every later
scale-out PR must keep:

* **packet conservation** — every injected packet has exactly one fate:
  delivered, dropped, or filtered.  After a full drain nothing may
  remain in flight, queued, or buffered.
* **no station left paused** — migrations and rollbacks always resume
  the stations they paused, even when an attempt aborts mid-transfer.
* **executor quiescent** — the ``busy`` flag is cleared after every
  terminal plan outcome (succeeded or aborted).
* **demand refreshed** — device utilisation matches a recomputation
  from the final placement at the last refreshed load, i.e. every
  migration *and every rollback* refreshed demand.
* **faults restored** — brownout derates and PCIe flap latency are back
  to nominal once their windows expire.
* **causality** — no delivered packet departs before it arrives.

Resilient runs (a :class:`~repro.resilience.ResilientController` in
charge) add three more via :func:`check_resilience_invariants`:

* **recovery terminal** — every device-failure recovery completes,
  degrades, or is abandoned; none may hang forever.
* **shed classes** — protected priority classes are never shed.
* **shed fraction** — total shed stays within the configured cap (plus
  a small tolerance for the ladder's reaction time).

These end-state checks are also registered with the online invariant
engine (:mod:`repro.soak.invariants`), which additionally evaluates
*mid-run* invariants (monotonic virtual time, queue bounds, budget
ledger, health-FSM legality, zero protected sheds) at every monitor
tick — the soak engine is the superset; this module stays the home of
the primitive checks so existing campaign payloads keep their pinned
formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from operator import lt
from typing import List, Mapping, Optional

from ..devices.server import Server
from ..migration.executor import MigrationExecutor
from ..resources.model import LoadModel
from ..sim.network import ChainNetwork

#: Relative tolerance for demand recomputation.
_DEMAND_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One broken invariant.

    ``data`` carries optional structured diagnostics (e.g. the
    exception payload of a ``scenario-error`` — see
    :func:`repro.exec.errinfo.exception_payload`).  It is omitted from
    the serialised form when ``None`` so records written before the
    field existed round-trip unchanged, and it never participates in
    ``__str__`` — reports stay one line per violation.
    """

    invariant: str
    detail: str
    data: Optional[Mapping[str, object]] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"

    def to_dict(self) -> dict:
        """JSON-friendly form for journal records."""
        out: dict = {"invariant": self.invariant, "detail": self.detail}
        if self.data is not None:
            out["data"] = dict(self.data)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        """Inverse of :meth:`to_dict` (journal round-trip)."""
        return cls(invariant=data["invariant"], detail=data["detail"],
                   data=data.get("data"))


def check_invariants(network: ChainNetwork, server: Server,
                     executor: Optional[MigrationExecutor] = None
                     ) -> List[Violation]:
    """All invariant violations in the (fully drained) end state."""
    violations: List[Violation] = []
    violations.extend(_check_conservation(network))
    violations.extend(_check_stations(network))
    violations.extend(_check_executor(executor))
    violations.extend(_check_demand(server))
    violations.extend(_check_faults_restored(server))
    violations.extend(_check_causality(network))
    return violations


def check_resilience_invariants(controller, max_shed_fraction: float,
                                tol: float = 0.05) -> List[Violation]:
    """Resilience-layer invariants (duck-typed on the controller).

    ``controller`` needs ``recoveries`` (objects with ``terminal``,
    ``device``, ``detected_s``) and a ``shedder`` — the shape of
    :class:`~repro.resilience.ResilientController`.  ``tol`` absorbs
    the packets admitted between overload onset and the ladder's first
    escalation.
    """
    out: List[Violation] = []
    for recovery in controller.recoveries:
        if not recovery.terminal:
            out.append(Violation(
                "recovery-terminal",
                f"recovery of {recovery.device.value} (detected at "
                f"{recovery.detected_s:.4f}s) never reached a terminal "
                "status — it must complete, degrade, or be abandoned"))
    protected = controller.shedder.protected_shed_packets()
    if protected:
        out.append(Violation(
            "shed-classes",
            f"{protected} packets shed from protected priority classes"))
    fraction = controller.shedder.shed_fraction()
    if fraction > max_shed_fraction + tol:
        out.append(Violation(
            "shed-fraction",
            f"shed fraction {fraction:.3f} exceeds the configured cap "
            f"{max_shed_fraction} (tolerance {tol})"))
    return out


def _check_conservation(network: ChainNetwork) -> List[Violation]:
    out: List[Violation] = []
    in_flight = network.in_flight()
    if in_flight < 0:
        out.append(Violation(
            "packet-conservation",
            f"negative in-flight count {in_flight}: a packet was "
            f"accounted twice (injected={network.injected}, "
            f"delivered={len(network.delivered)}, "
            f"dropped={network.dropped}, "
            f"filtered={network.filtered}, "
            f"shed={network.shed})"))
    residual = sum(len(station.queue) + station.buffered
                   for station in network.stations.values())
    if in_flight != residual:
        out.append(Violation(
            "packet-conservation",
            f"{in_flight} packets unaccounted for after drain but only "
            f"{residual} resident in station queues/buffers"))
    elif in_flight > 0:
        out.append(Violation(
            "packet-conservation",
            f"{in_flight} packets still queued/buffered after a full "
            "drain — some station never resumed service"))
    return out


def _check_stations(network: ChainNetwork) -> List[Violation]:
    out: List[Violation] = []
    for name, station in network.stations.items():
        if station.paused:
            out.append(Violation(
                "station-resumed",
                f"station {name!r} left paused at end of run"))
        if station.busy:
            out.append(Violation(
                "station-idle",
                f"station {name!r} still mid-service after full drain"))
    return out


def _check_executor(executor: Optional[MigrationExecutor]) -> List[Violation]:
    if executor is not None and executor.busy:
        return [Violation(
            "executor-quiescent",
            "executor busy flag still set after all plans terminated")]
    return []


def _check_demand(server: Server) -> List[Violation]:
    if server.last_refresh_bps is None:
        return []
    model = LoadModel(server.placement, server.last_refresh_bps)
    out: List[Violation] = []
    for device, load in ((server.nic, model.nic_load()),
                         (server.cpu, model.cpu_load())):
        expected = load.utilisation
        tolerance = _DEMAND_TOL * max(1.0, abs(expected))
        if abs(device.demand - expected) > tolerance:
            out.append(Violation(
                "demand-refreshed",
                f"{device.name} demand {device.demand:.6f} != "
                f"{expected:.6f} recomputed from the final placement — "
                "a migration or rollback skipped refresh_demand"))
    return out


def _check_faults_restored(server: Server) -> List[Violation]:
    out: List[Violation] = []
    for device in (server.nic, server.cpu):
        if device.is_failed:
            # A permanently killed device is *supposed* to stay broken:
            # an overlapping brownout must not have restored it, and a
            # lingering derate on a corpse is irrelevant.
            continue
        if device.derate != 1.0:
            out.append(Violation(
                "faults-restored",
                f"{device.name} still derated to {device.derate} after "
                "every brownout window expired"))
    if server.pcie.fault_extra_latency_s != 0.0:
        out.append(Violation(
            "faults-restored",
            f"PCIe flap latency {server.pcie.fault_extra_latency_s} "
            "not cleared after the flap window"))
    return out


def _check_causality(network: ChainNetwork) -> List[Violation]:
    delivered = network.delivered
    departures = delivered.column("departure_s")
    arrivals = delivered.column("arrival_s")
    late = next(compress(count(), map(lt, departures, arrivals)), None)
    if late is None:
        return []
    return [Violation(
        "causality",
        f"packet {int(delivered.column('seq')[late])} departed at "
        f"{departures[late]} before arriving at {arrivals[late]}")]
