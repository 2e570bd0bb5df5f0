"""Perf trajectory seed: campaign throughput, serial vs parallel.

Times one fixed 32-run chaos campaign through the unified execution
core at ``workers=1`` and ``workers=4``, plus an engine-events/sec
series over invariant-instrumented soak cases, and writes the
measurements to ``BENCH_campaigns.json`` so future PRs have a baseline
to regress against.  Correctness is asserted unconditionally — the two merged
reports must be bit-identical; the speedup assertion only applies on
hosts with enough cores to express it (a single-core runner can prove
determinism, not parallelism).

Wall-clock here is the *measurement*, not simulation state, so the
``time.perf_counter`` reads are deliberate (DET103 suppressions).
"""

import json
import os
import time
from pathlib import Path

import pytest
from conftest import report
from repro.chaos import ChaosConfig, ChaosReport, ChaosRunner
from repro.chaos.runner import ChaosCampaign
from repro.exec import make_executor, run_campaign
from repro.soak import default_space, generate_case
from repro.soak.scenario import run_case

RUNS = 32
SEED = 7
DURATION_S = 0.01
#: Cores needed before the parallel leg is expected to actually win.
MIN_CORES_FOR_SPEEDUP = 4
#: Soak cases timed for the engine-events/sec series (ROADMAP item 1:
#: event-rate trendline through the invariant-instrumented engine).
EVENT_SERIES_CASES = 6
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_campaigns.json"

#: The series recorded before the slab/calendar event hot path landed
#: (per-Event-object min-heap engine, scalar arrival loops).  Frozen so
#: every regeneration reports its speedup against the same "before",
#: and so the per-case event counts stay pinned — the batched engine
#: must execute *exactly* these events, only faster.
BASELINE_ENGINE_EVENTS = {
    "events_per_s": 111471.5,
    "series": [
        {"seed": 7, "events": 23215, "wall_s": 0.2335},
        {"seed": 8, "events": 32341, "wall_s": 0.2687},
        {"seed": 9, "events": 12961, "wall_s": 0.106},
        {"seed": 10, "events": 38300, "wall_s": 0.3374},
        {"seed": 11, "events": 11309, "wall_s": 0.0919},
        {"seed": 12, "events": 15049, "wall_s": 0.1572},
    ],
}
#: Exact per-case event counts every timed run must reproduce.
EXPECTED_EVENTS = [point["events"]
                   for point in BASELINE_ENGINE_EVENTS["series"]]
#: Events/sec floor for the CI perf-smoke job.  Deliberately far below
#: the measured post-refactor rate (~4x the baseline on the recording
#: host) so only a real hot-path regression — not runner jitter — can
#: trip it; opt-in via the environment so local runs stay advisory.
PERF_FLOOR_ENV = "REPRO_PERF_FLOOR_EVENTS_PER_S"


def _timed_campaign(workers):
    campaign = ChaosCampaign(ChaosRunner(
        runs=RUNS, seed=SEED, config=ChaosConfig(duration_s=DURATION_S)))
    start = time.perf_counter()  # repro: noqa[DET103]
    outcome = run_campaign(campaign, executor=make_executor(workers))
    wall_s = time.perf_counter() - start  # repro: noqa[DET103]
    return ChaosReport.from_payloads(outcome.payloads), wall_s


def _engine_event_series():
    """Per-case engine throughput with the online invariant engine on.

    Each soak case reports how many engine events it executed, so
    timing ``run_case`` yields events/sec through the fully
    instrumented path (per-event and per-tick invariants attached) —
    the series future PRs regress engine overhead against.
    """
    space = default_space(DURATION_S)
    series = []
    for index in range(EVENT_SERIES_CASES):
        case = generate_case(space, SEED + index)
        start = time.perf_counter()  # repro: noqa[DET103]
        payload = run_case(case)
        wall_s = time.perf_counter() - start  # repro: noqa[DET103]
        series.append({
            "seed": case.seed,
            "events": payload["events"],
            "ticks": payload["ticks"],
            "violations": len(payload["violations"]),
            "wall_s": round(wall_s, 4),
            "events_per_s": round(payload["events"] / wall_s, 1)
            if wall_s else 0.0,
        })
    return series


def test_campaign_throughput(benchmark):
    results = {}

    def run():
        results.clear()
        for workers in (1, MIN_CORES_FOR_SPEEDUP):
            results[workers] = _timed_campaign(workers)

    benchmark.pedantic(run, rounds=1, iterations=1)

    serial, serial_s = results[1]
    parallel, parallel_s = results[MIN_CORES_FOR_SPEEDUP]
    speedup = serial_s / parallel_s if parallel_s else 0.0
    cpu_count = os.cpu_count() or 1

    event_series = _engine_event_series()
    total_events = sum(point["events"] for point in event_series)
    total_wall_s = sum(point["wall_s"] for point in event_series)
    events_per_s = (round(total_events / total_wall_s, 1)
                    if total_wall_s else 0.0)

    payload = {
        "benchmark": "campaigns",
        "campaign": "chaos",
        "runs": RUNS,
        "seed": SEED,
        "duration_s": DURATION_S,
        "cpu_count": cpu_count,
        "workers": {
            "1": {"wall_s": round(serial_s, 3),
                  "runs_per_s": round(RUNS / serial_s, 3)},
            str(MIN_CORES_FOR_SPEEDUP): {
                "wall_s": round(parallel_s, 3),
                "runs_per_s": round(RUNS / parallel_s, 3)},
        },
        "speedup": round(speedup, 3),
        "bit_identical": serial.render() == parallel.render(),
        "engine_events": {
            "cases": EVENT_SERIES_CASES,
            "events_per_s": events_per_s,
            "series": event_series,
            "baseline": BASELINE_ENGINE_EVENTS,
            "speedup_vs_baseline": round(
                events_per_s / BASELINE_ENGINE_EVENTS["events_per_s"], 2),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")

    body = (f"serial:   {serial_s:7.2f}s  "
            f"({RUNS / serial_s:5.2f} runs/s)\n"
            f"parallel: {parallel_s:7.2f}s  "
            f"({RUNS / parallel_s:5.2f} runs/s, "
            f"workers={MIN_CORES_FOR_SPEEDUP})\n"
            f"speedup:  {speedup:.2f}x on {cpu_count} core(s)\n"
            f"engine:   {events_per_s:10.1f} events/s "
            f"({EVENT_SERIES_CASES} instrumented soak cases)\n"
            f"wrote {OUTPUT.name}")
    report(f"Campaign throughput ({RUNS}-run chaos, seed {SEED})", body)

    # The core contract: executors change wall-clock, never results.
    assert serial.render() == parallel.render()
    assert serial.ok and parallel.ok
    # The batched hot path must execute exactly the baseline's events.
    assert [point["events"] for point in event_series] == EXPECTED_EVENTS
    assert all(point["violations"] == 0 for point in event_series)
    # The perf contract, only where the hardware can express it.
    if cpu_count >= MIN_CORES_FOR_SPEEDUP:
        assert speedup >= 2.5, (
            f"expected >= 2.5x speedup on {cpu_count} cores, "
            f"got {speedup:.2f}x")


def test_engine_event_floor():
    """CI perf smoke: the instrumented engine stays above the floor.

    Only the events/sec series runs (no campaign legs), so the job
    finishes in seconds.  The floor arrives via ``REPRO_PERF_FLOOR_-
    EVENTS_PER_S``; without it the test skips, keeping ad-hoc local
    pytest runs advisory rather than hardware-dependent.  Event counts
    and invariant cleanliness are asserted unconditionally — speed may
    vary by host, correctness may not.
    """
    floor = float(os.environ.get(PERF_FLOOR_ENV, "0") or "0")
    series = _engine_event_series()
    assert [point["events"] for point in series] == EXPECTED_EVENTS
    assert all(point["violations"] == 0 for point in series)
    if not floor:
        pytest.skip(f"no perf floor configured (set {PERF_FLOOR_ENV})")
    total_events = sum(point["events"] for point in series)
    total_wall_s = sum(point["wall_s"] for point in series)
    events_per_s = total_events / total_wall_s if total_wall_s else 0.0
    assert events_per_s >= floor, (
        f"engine series ran at {events_per_s:,.0f} events/s, "
        f"below the configured floor of {floor:,.0f}")
