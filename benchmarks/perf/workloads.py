"""The benchmark's four workloads, each split into set-up, execute, check.

Every workload is a closed loop: one client (the benchmark process)
submits a whole grid and waits for the merged result.  ``setup`` builds
the campaign from the seed (this is what ``setup_s`` times, in a fresh
process), ``execute`` is the timed call into the program, and ``check``
turns its output into a :class:`PassResult` (counts, digest, failed
gates) outside the timed region.

Importing this module imports ``repro``; the caller puts the checkout's
``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional

from repro.chaos import ChaosConfig, ChaosRunner
from repro.chaos.runner import ChaosCampaign
from repro.checkpoint import read_journal, record_checksum
from repro.errors import CheckpointError, ReproError
from repro.exec import RunRequest, make_executor, run_campaign, seed_for
from repro.harness.compare import compare_policies
from repro.harness.scenarios import figure1
from repro.sim.engine import Engine
from repro.soak import SoakCampaign, default_space
from repro.telemetry.metrics import relative_change
from repro.traffic.packet import PAPER_SIZE_SWEEP

#: Runs per chaos and soak campaign.  Small enough that a measured run
#: repeats the campaign many times and reports a median; with the
#: packet size fixed, 32-run campaigns differ in simulated work by about
#: 1% from seed to seed.
CAMPAIGN_RUNS = 32
#: Simulated seconds per chaos run, and the soak space's duration cap.
CAMPAIGN_DURATION_S = 0.01
#: Simulated seconds per Figure 2 measurement.  CBR reaches steady state
#: at once, so the PAM/naive/noop latencies, and the bands checked, are
#: identical here and at bench_figure2_latency's 0.008 s.
FIG2_DURATION_S = 0.003
#: Runs the parallel workload re-executes serially, once per run.
SPOT_CHECKS = 4

#: Counts and digests a pass must reproduce exactly.  fig2-sweep draws
#: no randomness, so its pin holds for every seed; the others are for
#: ``--seed 7``.  Events are counted in the benchmark process, so the
#: parallel workload (whose engines run in workers) pins none; its
#: digest must equal chaos-journal's.
PINS: Dict[str, Dict[str, Optional[int]]] = {
    "fig2-sweep": {"packets": 139218, "events": 1845912,
                   "digest": 304694692},
    "chaos-journal": {"packets": 114286, "events": 1056531,
                      "digest": 3544721081},
    "chaos-parallel": {"packets": 114286, "events": None,
                       "digest": 3544721081},
    "soak-fuzz": {"packets": 109051, "events": 974010,
                  "digest": 2032409395},
}
PINNED_SEED = 7


@dataclass
class PassResult:
    """What one pass of a workload produced, reduced for comparison."""

    packets: int
    #: Engine events executed in this process (None when they ran in
    #: worker processes).
    events: Optional[int]
    #: CRC32 of the canonical JSON of the pass's merged output.
    digest: int
    attempted: int
    failed: int
    #: Failed correctness gates, one line each.
    errors: List[str] = field(default_factory=list)

    def identity(self) -> Dict[str, Optional[int]]:
        """The fields a repeated or traced pass must reproduce."""
        return {"packets": self.packets, "events": self.events,
                "digest": self.digest}


@contextmanager
def counting_events() -> Iterator[List[int]]:
    """Count engine events executed in this process while open."""
    total = [0]
    original = Engine.run

    def run(engine, *args, **kwargs):
        before = engine.events_processed
        try:
            return original(engine, *args, **kwargs)
        finally:
            total[0] += engine.events_processed - before

    Engine.run = run
    try:
        yield total
    finally:
        Engine.run = original


class Fig2Sweep:
    """The paper's Figure 2 grid: 6 sizes x {noop, naive, pam} x 2 loads."""

    name = "fig2-sweep"
    why = ("CBR, serial, unjournaled: engine and data-plane bound, 64 B "
           "packets make per-packet cost dominate; journal and executor "
           "changes should not move it")
    parallel = False

    def setup(self, seed: int, scratch: str) -> object:
        """The Figure 1 scenario (the grid itself draws no randomness)."""
        return figure1()

    def execute(self, scenario) -> list:
        """Every size's three-policy comparison, in size order."""
        cells = []
        for size in PAPER_SIZE_SWEEP:
            try:
                cells.append((size, compare_policies(
                    scenario, packet_size_bytes=size,
                    duration_s=FIG2_DURATION_S)))
            except ReproError as exc:
                cells.append((size, exc))
        return cells

    def check(self, scenario, cells: list,
              events: Optional[int]) -> PassResult:
        """Bands of bench_figure2_latency plus the output digest."""
        errors: List[str] = []
        rows: list = []
        packets = failed = 0
        gaps = []
        for size, outcomes in cells:
            if isinstance(outcomes, ReproError):
                failed += 6
                errors.append(f"{size} B: {outcomes}")
                continue
            for policy, outcome in sorted(outcomes.items()):
                latency, saturated = (outcome.latency_run,
                                      outcome.throughput_run)
                packets += latency.injected + saturated.injected
                rows.append([size, policy, latency.injected,
                             latency.delivered, latency.dropped,
                             outcome.mean_latency_s, saturated.injected,
                             saturated.delivered, outcome.goodput_bps,
                             outcome.pcie_crossings])
            pam = outcomes["pam"].mean_latency_s
            noop = outcomes["noop"].mean_latency_s
            gap = relative_change(pam, outcomes["naive"].mean_latency_s)
            gaps.append(gap)
            if not gap < -0.10:
                errors.append(f"{size} B: PAM vs naive {gap:+.1%}, "
                              f"needs below -10%")
            if abs(pam - noop) > 0.02 * noop:
                errors.append(f"{size} B: PAM {pam:.3e}s not within 2% "
                              f"of noop {noop:.3e}s")
        mean_gap = statistics.mean(gaps) if gaps else 0.0
        if not -0.22 < mean_gap < -0.14:
            errors.append(f"mean PAM saving {-mean_gap:.1%} outside "
                          f"(14%, 22%)")
        return PassResult(packets=packets, events=events,
                          digest=record_checksum(rows),
                          attempted=6 * len(cells), failed=failed,
                          errors=errors)


class ChaosJournal:
    """A journaled chaos campaign, serial (``workers=1``)."""

    name = "chaos-journal"
    why = ("32 short chaos runs with an fsync'd journal: per-run fixed "
           "costs (wiring, faults, controller ticks, migrations, collect, "
           "journal append) dominate")
    workers = 1
    parallel = False

    def setup(self, seed: int, scratch: str) -> dict:
        """The campaign and its journal path (created by the run)."""
        runner = ChaosRunner(runs=CAMPAIGN_RUNS, seed=seed,
                             config=ChaosConfig(
                                 duration_s=CAMPAIGN_DURATION_S))
        return {"campaign": ChaosCampaign(runner),
                "executor": make_executor(self.workers),
                "journal": f"{scratch}/{self.name}.jsonl"}

    def execute(self, state: dict):
        """One campaign from first run to merged outcome."""
        return run_campaign(state["campaign"], executor=state["executor"],
                            journal_path=state["journal"])

    def check(self, state: dict, outcome,
              events: Optional[int]) -> PassResult:
        """Zero violations and a complete, intact journal."""
        payloads = outcome.payloads
        result = _campaign_result(payloads, events)
        try:
            journal = read_journal(state["journal"],
                                   tolerate_torn_tail=False)
        except CheckpointError as exc:
            result.errors.append(f"journal unreadable: {exc}")
        else:
            if len(journal.of_kind("campaign-end")) != 1:
                result.errors.append("journal has no campaign-end record")
            if len(journal.of_kind("run-result")) != len(payloads):
                result.errors.append("journal run-result count differs "
                                     "from the merged report")
        return result


class ChaosParallel(ChaosJournal):
    """The identical journaled campaign on two worker processes."""

    name = "chaos-parallel"
    why = ("the chaos-journal campaign on 2 workers: the only workload "
           "using executor transport (pool spawn, spec rebuild, payload "
           "return); journal appends overlap worker compute")
    workers = 2
    parallel = True

    def check(self, state: dict, outcome,
              events: Optional[int]) -> PassResult:
        """As chaos-journal; the first pass also re-executes a few runs
        serially."""
        result = super().check(state, outcome, None)
        if state.setdefault("spot_checked", False):
            return result
        state["spot_checked"] = True
        campaign = state["campaign"]
        last = CAMPAIGN_RUNS - 1
        for index in sorted({last * k // (SPOT_CHECKS - 1)
                             for k in range(SPOT_CHECKS)}):
            request = RunRequest(index=index,
                                 seed=seed_for(campaign.runner.seed, index))
            if campaign.run_request(request) != outcome.payloads[index]:
                result.errors.append(f"run {index} differs from its serial "
                                     f"re-execution")
        return result


class SoakFuzz:
    """A serial, unjournaled soak campaign with the invariant engine."""

    name = "soak-fuzz"
    why = ("32 fuzzed cases, serial: the only workload running the "
           "online invariant engine and the engine's trace-observer loop")
    parallel = False

    def setup(self, seed: int, scratch: str) -> dict:
        """The campaign over the default space, narrowed in two ways.

        Device kills are left out: with them the fuzzer finds a
        packet-conservation violation in device-kill recovery (soak
        seeds 1128 and 1378 of ``default_space(0.01)``), and a
        benchmark must run where no run fails.  The packet size is
        fixed at 512 B, as in chaos runs: drawn sizes make one 32-case
        campaign do up to twice the work of another.
        """
        space = replace(default_space(CAMPAIGN_DURATION_S),
                        max_device_kills=0, packet_sizes=(512,))
        return {"campaign": SoakCampaign(runs=CAMPAIGN_RUNS, seed=seed,
                                         space=space),
                "executor": make_executor(1)}

    def execute(self, state: dict):
        """One campaign from first case to merged outcome."""
        return run_campaign(state["campaign"], executor=state["executor"])

    def check(self, state: dict, outcome,
              events: Optional[int]) -> PassResult:
        """Zero violations; events come from the payloads themselves."""
        result = _campaign_result(outcome.payloads, events)
        reported = sum(payload["events"] for payload in outcome.payloads)
        if events is not None and events != reported:
            result.errors.append(f"payloads report {reported} events, "
                                 f"the engine ran {events}")
        return result


def _campaign_result(payloads: List[Dict[str, object]],
                     events: Optional[int]) -> PassResult:
    failed = sum(1 for payload in payloads
                 if any(violation["invariant"] == "scenario-error"
                        for violation in payload["violations"]))
    errors = [f"seed {payload['seed']}: {violation['invariant']}: "
              f"{violation['detail']}"
              for payload in payloads for violation in payload["violations"]]
    return PassResult(packets=sum(int(payload["injected"])
                                  for payload in payloads),
                      events=events, digest=record_checksum(payloads),
                      attempted=len(payloads), failed=failed, errors=errors)


#: The workloads in round-robin order.
WORKLOADS = {workload.name: workload for workload in (
    Fig2Sweep(), ChaosJournal(), ChaosParallel(), SoakFuzz())}


def pinned(workload: str, seed: int) -> Optional[Dict[str, Optional[int]]]:
    """The identity a pass must reproduce, when one is pinned."""
    if workload == "fig2-sweep" or seed == PINNED_SEED:
        return PINS[workload]
    return None
