"""Parameter sweeps: packet size (Figure 2), load ramps (Table 1), and
the ablation axes (PCIe latency, chain length).

The packet-size sweep is a :mod:`repro.exec` campaign
(:class:`SizeSweepCampaign`); :func:`packet_size_sweep` runs it
serially.  Journals, resume, workers, and supervision come from
handing the campaign to :func:`repro.exec.run_campaign` — the merged
point list is identical whichever executor ran (merge is by index, not
completion order).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..chain.nf import DeviceKind, NFProfile
from ..chain.chain import ServiceChain
from ..chain.placement import Placement
from ..core.planner import SelectionPolicy
from ..devices.server import ServerProfile
from ..errors import ConfigurationError
from ..exec.campaign import Campaign, RunRequest, register_campaign
from ..exec.driver import run_campaign
from ..traffic.packet import PAPER_SIZE_SWEEP
from ..units import as_gbps, as_usec
from .compare import PolicyOutcome, compare_policies
from .experiment import steady_state
from .scenarios import (FIGURE1_BASE_LOAD_BPS, FIGURE1_SATURATION_BPS,
                        Scenario, enterprise_edge, datacenter_inline,
                        figure1, table1_chain)


@dataclass(frozen=True)
class ReplayedPolicyOutcome:
    """A policy outcome restored from a sweep journal record.

    Duck-type compatible with :class:`~repro.harness.compare.
    PolicyOutcome` for everything the figure renderers consume; the
    full simulation runs behind a journaled point are not kept (that
    is the point of not re-running them).
    """

    policy: str
    mean_latency_s: float
    goodput_bps: float
    pcie_crossings: int


@dataclass(frozen=True)
class SizeSweepPoint:
    """Comparison outcomes at one packet size (one x-value of Figure 2)."""

    packet_size_bytes: int
    outcomes: Dict[str, PolicyOutcome]

    def mean_latency_usec(self, policy: str) -> float:
        """Average latency of ``policy`` at this size, microseconds."""
        return as_usec(self.outcomes[policy].mean_latency_s)

    def goodput_gbps(self, policy: str) -> float:
        """Saturated goodput of ``policy`` at this size, Gbps."""
        return as_gbps(self.outcomes[policy].goodput_bps)

    def to_record(self) -> Dict[str, object]:
        """JSON-friendly journal form (floats round-trip bit-exact)."""
        return {
            "size": self.packet_size_bytes,
            "outcomes": {
                name: {"mean_latency_s": outcome.mean_latency_s,
                       "goodput_bps": outcome.goodput_bps,
                       "pcie_crossings": outcome.pcie_crossings}
                for name, outcome in self.outcomes.items()},
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "SizeSweepPoint":
        """Inverse of :meth:`to_record` (journal replay)."""
        outcomes = {
            name: ReplayedPolicyOutcome(
                policy=name,
                mean_latency_s=float(fields["mean_latency_s"]),
                goodput_bps=float(fields["goodput_bps"]),
                pcie_crossings=int(fields["pcie_crossings"]))
            for name, fields in record["outcomes"].items()}
        return cls(packet_size_bytes=int(record["size"]),
                   outcomes=outcomes)


#: Canned scenarios a parallel sweep can rebuild worker-side by name.
#: Custom ``Scenario`` objects still sweep serially (they cannot be
#: reconstructed from a JSON spec, and nothing simulation-stateful may
#: cross the process boundary).
_SCENARIO_FACTORIES = {
    "figure1": figure1,
    "table1": table1_chain,
    "datacenter": datacenter_inline,
    "edge": enterprise_edge,
}


@register_campaign
class SizeSweepCampaign(Campaign):
    """Figure 2's grid: one request per packet size, merged in order.

    A size whose run exhausts its attempts raises
    :class:`~repro.errors.ExecutionError` rather than quarantining (the
    sweep has no violation vocabulary); serially run, its
    ``__context__`` is the size's own exception.  Parallel execution
    needs a canned scenario and the default policies, both rebuildable
    from JSON on the worker side.
    """

    kind = "size-sweep"
    description = ("Figure 2 packet-size sweep: one run per size, "
                   "merged in grid order")

    def __init__(self, scenario: Scenario,
                 sizes: Sequence[int] = PAPER_SIZE_SWEEP,
                 policies: Optional[Sequence[SelectionPolicy]] = None,
                 latency_load_bps: float = FIGURE1_BASE_LOAD_BPS,
                 throughput_load_bps: float = FIGURE1_SATURATION_BPS,
                 duration_s: float = 0.02) -> None:
        self.scenario = scenario
        self.sizes = list(sizes)
        self.policies = policies
        self.latency_load_bps = latency_load_bps
        self.throughput_load_bps = throughput_load_bps
        self.duration_s = duration_s

    def fingerprint(self) -> Dict[str, object]:
        """Sweep identity: sizes and loads (splicing a different
        sweep's points into this one would be a silent lie)."""
        return {"sizes": list(self.sizes), "duration_s": self.duration_s,
                "latency_load_bps": self.latency_load_bps,
                "throughput_load_bps": self.throughput_load_bps}

    def spec(self) -> Dict[str, object]:
        """Worker-rebuildable description (scenario travels by name)."""
        if self.scenario.name not in _SCENARIO_FACTORIES:
            raise ConfigurationError(
                f"scenario {self.scenario.name!r} has no registered "
                f"factory; parallel sweeps support "
                f"{sorted(_SCENARIO_FACTORIES)} (run with workers=1)")
        if self.policies is not None:
            raise ConfigurationError(
                "custom policy objects cannot cross the process "
                "boundary; parallel sweeps use the default policies "
                "(run with workers=1)")
        return {"scenario": self.scenario.name, **self.fingerprint()}

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "SizeSweepCampaign":
        """Rebuild from :meth:`spec` (worker-side construction)."""
        options = dict(spec)
        return cls(_SCENARIO_FACTORIES[options.pop("scenario")](),
                   **options)

    def requests(self) -> List[RunRequest]:
        """One request per packet size (the sweep draws no randomness)."""
        return [RunRequest(index=index, params={"size": size})
                for index, size in enumerate(self.sizes)]

    def run_request(self, request: RunRequest) -> Dict[str, object]:
        """The full policy comparison at one size."""
        size = int(request.params["size"])
        outcomes = compare_policies(
            self.scenario, policies=self.policies,
            packet_size_bytes=size,
            latency_load_bps=self.latency_load_bps,
            throughput_load_bps=self.throughput_load_bps,
            duration_s=self.duration_s)
        return SizeSweepPoint(packet_size_bytes=size,
                              outcomes=outcomes).to_record()

    def end_record(self, payloads: List[Dict[str, object]]
                   ) -> Dict[str, object]:
        """Point count, for journal readers."""
        return {"points": len(payloads)}


def packet_size_sweep(scenario: Scenario, **options
                      ) -> List[SizeSweepPoint]:
    """Figure 2's x-axis, run serially: the full policy comparison per
    packet size.  ``options`` are :class:`SizeSweepCampaign`'s."""
    outcome = run_campaign(SizeSweepCampaign(scenario, **options))
    return [SizeSweepPoint.from_record(payload)
            for payload in outcome.payloads]


def measure_capacity(scenario: Scenario,
                     loads_bps: Sequence[float],
                     packet_size_bytes: int = 512,
                     duration_s: float = 0.01,
                     goodput_tolerance: float = 0.05) -> float:
    """Find the capacity knee by stepping offered load upward.

    Returns the highest offered load whose delivered goodput stays
    within ``goodput_tolerance`` of offered — i.e. the load just before
    the chain starts shedding.  Used by the Table 1 bench to confirm
    the simulator realises the configured capacities.
    """
    if not loads_bps:
        raise ConfigurationError("need at least one load step")
    knee = 0.0
    for load in sorted(loads_bps):
        result = steady_state(scenario, load, packet_size_bytes, duration_s)
        achieved = result.goodput_bps
        if achieved >= load * (1.0 - goodput_tolerance):
            knee = load
        else:
            break
    if knee == 0.0:
        raise ConfigurationError(
            "chain shed traffic even at the smallest load step")
    return knee


def single_nf_scenario(nf: NFProfile, device: DeviceKind,
                       server_profile: ServerProfile = ServerProfile()
                       ) -> Scenario:
    """A one-NF chain on one device — the Table 1 measurement fixture."""
    chain = ServiceChain([nf], name=f"solo-{nf.name}")
    placement = Placement.all_on(
        chain, device,
        # Keep the packet on the measured device end to end so the knee
        # reflects theta on that device alone, not PCIe serialisation.
        ingress=device, egress=device)
    return Scenario(name=f"table1/{nf.name}/{device.value}", chain=chain,
                    placement=placement, server_profile=server_profile)


@dataclass(frozen=True)
class PcieSweepPoint:
    """Naive-vs-PAM latency gap at one PCIe crossing latency."""

    crossing_latency_s: float
    naive_latency_s: float
    pam_latency_s: float

    @property
    def gap(self) -> float:
        """(naive - pam) / naive: the fraction of latency PAM saves."""
        return (self.naive_latency_s - self.pam_latency_s) / self.naive_latency_s


def pcie_latency_sweep(scenario_factory,
                       crossing_latencies_s: Sequence[float],
                       packet_size_bytes: int = 256,
                       duration_s: float = 0.02) -> List[PcieSweepPoint]:
    """Ablation A1: how the PAM advantage scales with PCIe cost.

    ``scenario_factory(server_profile)`` must return the scenario built
    against the given hardware profile.
    """
    points = []
    for crossing in crossing_latencies_s:
        profile = replace(ServerProfile(), pcie_crossing_latency_s=crossing)
        scenario = scenario_factory(profile)
        outcomes = compare_policies(scenario,
                                    packet_size_bytes=packet_size_bytes,
                                    duration_s=duration_s)
        points.append(PcieSweepPoint(
            crossing_latency_s=crossing,
            naive_latency_s=outcomes["naive"].mean_latency_s,
            pam_latency_s=outcomes["pam"].mean_latency_s))
    return points
