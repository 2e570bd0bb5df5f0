"""Policy comparison harness — the engine behind Figures 1 and 2.

The paper's measurement protocol: push the chain into overload, let each
policy pick its migration, then measure the resulting chain.  The
comparison here mirrors that in two steps:

1. **Plan** — apply each policy to the overloaded scenario analytically
   (the algorithms are deterministic given placement + throughput),
   yielding the post-migration placement and crossing counts.
2. **Measure** — simulate every resulting placement under identical
   workloads: latency at a load all placements sustain, throughput at a
   saturating load.

The closed-loop path (overload detected mid-run, migration executed
live) is exercised by the integration tests and the ``traffic_spike``
example; for figure regeneration the two-step protocol is noise-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines.naive import NaivePolicy
from ..baselines.noop import NoopPolicy
from ..core.plan import MigrationPlan
from ..core.planner import PAMPolicy, SelectionPolicy
from ..errors import ScaleOutRequired
from ..resources.model import LoadModel
from ..sim.runner import SimulationResult
from ..telemetry.metrics import relative_change
from .experiment import steady_state
from .scenarios import (FIGURE1_BASE_LOAD_BPS, FIGURE1_SATURATION_BPS,
                        Scenario)


@dataclass
class PolicyOutcome:
    """One policy's plan plus measurements of the resulting chain."""

    policy: str
    plan: MigrationPlan
    #: Steady-state run at the common comparison load.
    latency_run: SimulationResult
    #: Saturating run for the throughput figure.
    throughput_run: SimulationResult

    @property
    def mean_latency_s(self) -> float:
        """Average end-to-end latency at the comparison load."""
        if self.latency_run.latency is None:
            raise ScaleOutRequired("no packets delivered in latency run")
        return self.latency_run.latency.mean_s

    @property
    def goodput_bps(self) -> float:
        """Delivered throughput at the saturating load."""
        return self.throughput_run.goodput_bps

    @property
    def pcie_crossings(self) -> int:
        """End-to-end PCIe crossings of the post-migration placement."""
        return self.plan.after.pcie_crossings()


def default_policies() -> List[SelectionPolicy]:
    """The paper's three arms: before (noop), naive, PAM."""
    return [NoopPolicy(), NaivePolicy(), PAMPolicy()]


def compare_policies(scenario: Scenario,
                     policies: Optional[Sequence[SelectionPolicy]] = None,
                     packet_size_bytes: int = 256,
                     latency_load_bps: float = FIGURE1_BASE_LOAD_BPS,
                     throughput_load_bps: float = FIGURE1_SATURATION_BPS,
                     duration_s: float = 0.02) -> Dict[str, PolicyOutcome]:
    """Run the two-step comparison for every policy.

    The plan step uses the scenario's overload throughput; the
    measurement steps use ``latency_load_bps`` / ``throughput_load_bps``
    identically for every arm.
    """
    outcomes: Dict[str, PolicyOutcome] = {}
    for policy in policies if policies is not None else default_policies():
        plan = policy.select(
            (LoadModel(scenario.placement, scenario.throughput_bps),))
        after = scenario.with_placement(plan.after, suffix=policy.name)
        outcomes[policy.name] = PolicyOutcome(
            policy=policy.name,
            plan=plan,
            latency_run=steady_state(after, latency_load_bps,
                                     packet_size_bytes, duration_s),
            throughput_run=steady_state(after, throughput_load_bps,
                                        packet_size_bytes, duration_s))
    return outcomes


def latency_gap(outcomes: Dict[str, PolicyOutcome],
                subject: str = "pam", baseline: str = "naive") -> float:
    """Relative latency difference, e.g. PAM vs naive (paper: about -0.18)."""
    return relative_change(outcomes[subject].mean_latency_s,
                           outcomes[baseline].mean_latency_s)
