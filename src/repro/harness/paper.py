"""One-call reproduction of the paper's evaluation.

``reproduce_all()`` regenerates Table 1, Figure 1, and both Figure 2
panels, checks each against the paper's claims (shape, not absolute
numbers), and returns a structured report.  It is the library's
top-level acceptance test — what a reviewer runs first:

    python -m repro reproduce
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..chain.catalog import TABLE1, get as get_profile
from ..chain.nf import DeviceKind
from ..telemetry.metrics import relative_change
from ..units import gbps
from .compare import compare_policies, latency_gap
from .scenarios import figure1
from .sweep import (measure_capacity, packet_size_sweep,
                    single_nf_scenario)
from .tables import (render_capacity_table, render_figure1,
                     render_figure2_latency, render_figure2_throughput)


@dataclass(frozen=True)
class ArtefactResult:
    """One reproduced table/figure with its claim check."""

    artefact: str
    claim: str
    measured: str
    passed: bool
    rendered: str


@dataclass(frozen=True)
class ReproductionReport:
    """Results for every artefact; iterate or render as a whole."""

    artefacts: Tuple[ArtefactResult, ...]

    @property
    def all_passed(self) -> bool:
        """Whether every claim check held."""
        return all(artefact.passed for artefact in self.artefacts)

    def render(self) -> str:
        """The full text report with every regenerated artefact."""
        sections = []
        for artefact in self.artefacts:
            status = "PASS" if artefact.passed else "FAIL"
            sections.append(
                f"[{status}] {artefact.artefact} — {artefact.claim}\n"
                f"        measured: {artefact.measured}\n\n"
                f"{artefact.rendered}\n")
        verdict = ("all paper claims reproduced"
                   if self.all_passed else "SOME CLAIMS FAILED")
        return "\n".join(sections) + f"\n== {verdict} ==\n"


def _table1(duration_s: float) -> ArtefactResult:
    cases = [("firewall", DeviceKind.SMARTNIC, 10.0),
             ("logger", DeviceKind.SMARTNIC, 2.0),
             ("monitor", DeviceKind.SMARTNIC, 3.2),
             ("monitor", DeviceKind.CPU, 10.0),
             ("load_balancer", DeviceKind.CPU, 4.0)]
    rows = []
    worst = 0.0
    for name, device, configured in cases:
        scenario = single_nf_scenario(get_profile(name, TABLE1),
                                      device)
        loads = [gbps(configured * f)
                 for f in (0.5, 0.9, 0.95, 1.0, 1.05, 1.2)]
        measured = measure_capacity(scenario, loads,
                                    duration_s=duration_s)
        rows.append((name, device.value, gbps(configured), measured))
        worst = max(worst, abs(measured - gbps(configured))
                    / gbps(configured))
    return ArtefactResult(
        artefact="Table 1",
        claim="simulated capacity knees match the configured thetas",
        measured=f"worst knee error {worst:.1%}",
        passed=worst < 0.08,
        rendered=render_capacity_table(rows))


def _figure1(duration_s: float) -> ArtefactResult:
    outcomes = compare_policies(figure1(), duration_s=duration_s)
    delta = outcomes["naive"].pcie_crossings - \
        outcomes["noop"].pcie_crossings
    pam_delta = outcomes["pam"].pcie_crossings - \
        outcomes["noop"].pcie_crossings
    passed = delta == 2 and pam_delta == 0 and \
        outcomes["pam"].plan.migrated_names == ["logger"]
    return ArtefactResult(
        artefact="Figure 1",
        claim="naive pays +2 PCIe crossings, PAM pays none",
        measured=f"naive {delta:+d}, PAM {pam_delta:+d}, "
                 f"PAM moved {outcomes['pam'].plan.migrated_names}",
        passed=passed,
        rendered=render_figure1(outcomes))


def _figure2(duration_s: float) -> List[ArtefactResult]:
    points = packet_size_sweep(figure1(), duration_s=duration_s)
    gaps = [relative_change(p.mean_latency_usec("pam"),
                            p.mean_latency_usec("naive"))
            for p in points]
    mean_gap = statistics.mean(gaps)
    unchanged = max(abs(relative_change(p.mean_latency_usec("pam"),
                                        p.mean_latency_usec("noop")))
                    for p in points)
    latency = ArtefactResult(
        artefact="Figure 2(a)",
        claim="PAM ~18% below naive, unchanged vs before migration",
        measured=f"mean gap {mean_gap:+.1%}, worst drift vs before "
                 f"{unchanged:.1%}",
        passed=(-0.22 < mean_gap < -0.14) and unchanged < 0.02,
        rendered=render_figure2_latency(points))
    lifted = all(p.outcomes["pam"].goodput_bps >
                 1.2 * p.outcomes["noop"].goodput_bps for p in points)
    throughput = ArtefactResult(
        artefact="Figure 2(b)",
        claim="migration lifts throughput above the overloaded chain",
        measured=("PAM > 1.2x before at every size" if lifted
                  else "throughput not lifted"),
        passed=lifted,
        rendered=render_figure2_throughput(points))
    return [latency, throughput]


def reproduce_all(duration_s: float = 0.008) -> ReproductionReport:
    """Regenerate and check every paper artefact; ~1 minute at defaults."""
    artefacts = [_table1(max(duration_s / 2, 0.002)),
                 _figure1(duration_s)]
    artefacts.extend(_figure2(duration_s))
    return ReproductionReport(artefacts=tuple(artefacts))
