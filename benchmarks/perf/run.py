"""The repo benchmark: four campaign workloads, end to end and per layer.

One run of one workload::

    python3 benchmarks/perf/run.py --workload chaos-journal --seed 7 \\
        --seconds 24 --trace 0

builds the campaign from the seed, times set-up in fresh processes,
repeats the campaign for ``--seconds`` (at least once), checks every
pass and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` those are the end-to-end metrics, host times scaled to
the reference host's speed by a calibration loop timed around every
pass.  With ``--trace 1`` they are the per-layer metrics of traced
passes, after one untraced reference pass they must reproduce.  The
line before it, ``detail {...}``, carries the raw pass walls, the
calibrations, the counts and the digest.

Without ``--workload`` it runs every workload :data:`REPS` times, each
repetition in a fresh child process, round-robin; prints each metric's
median, min and max; and checks the gates that span workloads.
``--trace`` adds one traced child per workload and prints its layers.

Exit status: 0 when every gate passes, 1 when one fails, 2 on a usage
error, including a checkout without ``src/repro``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run writes goes under here, inside the checkout.
WORK = ROOT / ".perfbench"

#: Set-up probes per measured run (after one unmeasured warm-up).
SETUP_PROBES = 5
#: Fresh-process runs per workload in the all-workloads mode.
REPS = 3
#: Events of the calibration loop, about 0.06 s on the reference host.
CALIBRATION_EVENTS = 100000
#: What the calibration loop takes on the reference host (2 shared
#: Xeon vCPUs) when other tenants are quiet: the tenth percentile of 489
#: calibrations over forty runs.  Host times are reported at this speed.
CALIBRATION_REFERENCE_S = 0.06
#: Least time the all-workloads mode gives a traced run: enough passes
#: for 100 run requests, so every campaign workload reports its p90s.
TRACE_SECONDS = 24.0
NS_PER_US = 1000.0

END_TO_END = {"wall_s": "s", "pkts_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "sim.engine.events": "count", "sim.engine.self_s": "s",
    "sim.engine.ns_per_event": "ns",
    "sim.events.schedules": "count", "sim.events.self_s": "s",
    "sim.network.actions": "count", "sim.network.self_s": "s",
    "sim.nfinstance.actions": "count", "sim.nfinstance.accepts": "count",
    "sim.nfinstance.drop_frac": "frac", "sim.nfinstance.self_s": "s",
    "sim.faults.actions": "count", "sim.faults.self_s": "s",
    "devices.pcie.crossings": "count", "devices.pcie.self_s": "s",
    "sim.latency.self_s": "s", "telemetry.metrics.summary_s": "s",
    "traffic.packets": "count", "traffic.gen_s": "s",
    "sim.runner.prepare_s": "s", "sim.runner.collect_s": "s",
    "scenario.wiring_s": "s",
    "core.ticks": "count", "core.tick_s": "s", "core.tick_p50_us": "us",
    "core.tick_p90_us": "us",
    "migration.attempts": "count", "migration.self_s": "s",
    "soak.invariants.self_s": "s", "soak.invariants.events_checked": "count",
    "checkpoint.journal.appends": "count",
    "checkpoint.journal.append_s": "s",
    "checkpoint.journal.append_p50_us": "us",
    "checkpoint.journal.append_p90_us": "us",
    "checkpoint.journal.bytes": "B",
    "exec.run_request_p50_ms": "ms", "exec.run_request_p90_ms": "ms",
    "exec.first_result_s": "s", "exec.parent_cpu_s": "s",
    "exec.worker_cpu_s": "s", "exec.worker_busy_frac": "frac",
    "trace.wall_s": "s", "trace.attributed_s": "s",
    "trace.unattributed_s": "s", "trace.overhead": "ratio",
}


def now_s() -> float:
    """The benchmark's one host clock (timing is its measurement)."""
    return time.perf_counter()  # repro: noqa[DET103]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def cpu_s(who: int) -> float:
    """User plus system CPU seconds of ``RUSAGE_SELF``/``_CHILDREN``."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# -- one workload run ------------------------------------------------------


def calibrate() -> float:
    """Seconds a fixed pure-Python event loop takes on this host now.

    Shaped like the simulator's hot path (a heap of tuples, a dict
    update per event) but independent of the program, so it measures
    the host's current speed and nothing a change could make faster.
    """
    # Plain heapq is safe here: no two entries share a slot, so ties on
    # time never compare further, and nothing is simulated.
    heap = [(slot, slot, 0) for slot in range(256)]
    counts: Dict[int, int] = {}
    begin = now_s()
    for _ in range(CALIBRATION_EVENTS):
        when, slot, hops = heapq.heappop(heap)  # repro: noqa[EVT301]
        counts[slot] = counts.get(slot, 0) + 1
        heapq.heappush(  # repro: noqa[EVT301]
            heap, (when + 1 + (slot * 7919 + hops) % 97, slot, hops + 1))
    return now_s() - begin


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while :func:`calibrate` took
    ``calibration_s``, scaled to the reference host's quiet speed."""
    return seconds * CALIBRATION_REFERENCE_S / calibration_s


def probe_setup(name: str, seed: int, scratch: str) -> float:
    """Seconds one fresh interpreter takes to set ``name`` up."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         scratch], cwd=ROOT, capture_output=True, text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def gate_errors(name: str, seed: int, results: list) -> List[str]:
    """Every pass's own gates, pass-to-pass identity, and the pins."""
    import workloads

    errors = [error for result in results for error in result.errors]
    first = results[0].identity()
    for index, result in enumerate(results[1:], start=1):
        if result.identity() != first:
            errors.append(f"pass {index} output {result.identity()} differs "
                          f"from pass 0 {first}")
    pins = workloads.pinned(name, seed)
    if pins is not None:
        for key, expected in pins.items():
            if expected is not None and first[key] != expected:
                errors.append(f"{key} {first[key]} differs from the pinned "
                              f"{expected}")
    return errors


def measured_run(workload, seed: int, seconds: float,
                 scratch: str) -> Tuple[Dict[str, float], dict]:
    """End-to-end metrics of passes repeated for ``seconds``.

    Each pass's wall is scaled by the calibration loop timed just
    before and just after it, and the run reports the median pass.
    """
    from workloads import counting_events

    probe_setup(workload.name, seed, scratch)  # fill caches, compile
    setups = [probe_setup(workload.name, seed, scratch)
              for _ in range(SETUP_PROBES)]
    state = workload.setup(seed, scratch)
    walls: List[float] = []
    results = []
    started = now_s()
    cals = [calibrate()]
    while True:
        with counting_events() as events:
            begin = now_s()
            output = workload.execute(state)
            wall = now_s() - begin
        results.append(workload.check(
            state, output, None if workload.parallel else events[0]))
        walls.append(wall)
        cals.append(calibrate())
        if now_s() - started + wall > seconds:
            break
    wall = statistics.median(
        at_reference_speed(pass_s, (cals[index] + cals[index + 1]) / 2)
        for index, pass_s in enumerate(walls))
    metrics = {"wall_s": wall, "pkts_per_s": results[0].packets / wall,
               "setup_s": at_reference_speed(statistics.median(setups),
                                             statistics.median(cals)),
               "peak_rss_mb": peak_rss_mb()}
    detail = {"passes": len(walls), "walls_s": walls, "setups_s": setups,
              "cals_s": cals,
              **results[0].identity(),
              "attempted": sum(r.attempted for r in results),
              "failed": sum(r.failed for r in results),
              "errors": gate_errors(workload.name, seed, results)}
    return metrics, detail


def traced_run(workload, seed: int, seconds: float,
               scratch: str) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics of traced passes: one untraced reference pass,
    then traced passes that must reproduce it, for ``seconds`` in all."""
    import spans
    from workloads import counting_events

    state = workload.setup(seed, scratch)
    started = now_s()
    with counting_events() as events:
        begin = now_s()
        output = workload.execute(state)
        untraced_s = now_s() - begin
    results = [workload.check(state, output,
                              None if workload.parallel else events[0])]
    worker_dir = os.path.join(scratch, "workers")
    os.mkdir(worker_dir)
    tracer = spans.Tracer(worker_dir=worker_dir)
    begins: List[float] = []
    walls: List[float] = []
    cpu_self = cpu_children = 0.0
    while True:
        counted = tracer.counters.get("sim.engine.events", 0)
        # Installed per pass, so checking a pass runs untraced.
        installed = spans.install(tracer)
        try:
            self_before = cpu_s(resource.RUSAGE_SELF)
            children_before = cpu_s(resource.RUSAGE_CHILDREN)
            begin = now_s()
            output = workload.execute(state)
            wall = now_s() - begin
            cpu_self += cpu_s(resource.RUSAGE_SELF) - self_before
            cpu_children += cpu_s(resource.RUSAGE_CHILDREN) - children_before
        finally:
            installed.restore()
        begins.append(begin)
        walls.append(wall)
        results.append(workload.check(
            state, output, None if workload.parallel
            else tracer.counters.get("sim.engine.events", 0) - counted))
        if now_s() - started + wall > seconds:
            break
    dumps = tracer.worker_dumps()
    errors = gate_errors(workload.name, seed, results)
    attributed = tracer.attributed_s()
    if abs(attributed - tracer.root_s()) > 0.05 * sum(walls) \
            or attributed > 1.05 * sum(walls):
        errors.append(f"span self times {attributed:.3f}s do not add up "
                      f"within the traced wall {sum(walls):.3f}s")
    journal = state.get("journal") if isinstance(state, dict) else None
    totals = merged(tracer, dumps)
    metrics = layer_metrics(
        tracer, totals, begins=begins, walls=walls, untraced_s=untraced_s,
        cpu_self=cpu_self, cpu_children=cpu_children,
        workers=getattr(workload, "workers", 1) if workload.parallel else 0,
        journal_bytes=os.path.getsize(journal) if journal else 0)
    detail = {"passes": len(results), "walls_s": [untraced_s] + walls,
              **results[0].identity(),
              "attempted": sum(r.attempted for r in results),
              "failed": sum(r.failed for r in results),
              "layers_s": {layer: self_s / len(walls) for layer, self_s
                           in self_by_layer(totals[0]).items()},
              "errors": errors}
    write_trace(workload.name, seed, tracer, dumps)
    return metrics, detail


def merged(tracer, dumps: List[dict]):
    """Stats, samples and counters of this process plus its workers."""
    stats = {name: list(stat) for name, stat in tracer.stats.items()}
    samples = {name: list(values) for name, values in tracer.samples.items()}
    counters = dict(tracer.counters)
    for dump in dumps:
        for name, stat in dump["stats"].items():
            into = stats.setdefault(name, [0, 0.0, 0.0])
            for index in range(3):
                into[index] += stat[index]
        for name, values in dump["samples"].items():
            samples.setdefault(name, []).extend(values)
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return stats, samples, counters


def self_by_layer(stats: dict) -> Dict[str, float]:
    """Self seconds per layer, largest first."""
    import spans

    layers: Dict[str, float] = {}
    for name, stat in stats.items():
        layer = spans.layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + stat[2]
    return dict(sorted(layers.items(), key=lambda item: -item[1]))


def layer_metrics(tracer, totals, *, begins: List[float],
                  walls: List[float], untraced_s: float, cpu_self: float,
                  cpu_children: float, workers: int,
                  journal_bytes: int) -> Dict[str, float]:
    """The :data:`PER_LAYER` metrics, per traced pass.

    ``totals`` is :func:`merged`'s output.  Counts and times are totals
    over the traced passes divided by their number; percentiles pool
    every pass's samples.
    """
    from repro.units import as_msec, as_usec
    from verdict import percentile, reportable

    passes = len(walls)
    stats, samples, counters = totals
    layers = {layer: self_s / passes
              for layer, self_s in self_by_layer(stats).items()}

    def calls(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[0] / passes

    def inclusive_s(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[1] / passes

    def counted(key: str) -> float:
        return counters.get(key, 0) / passes

    def tail_s(name: str, p: float) -> float:
        # 0 unless ten samples lie beyond the percentile.
        values = samples.get(name, [])
        return percentile(values, p) if reportable(len(values), p) else 0.0

    events = counted("sim.engine.events")
    accepts = calls("sim.nfinstance:accept")
    maps = sorted((start, end) for name, start, end, _, _ in tracer.records
                  if name == "exec:map")
    first_results = [next(end for start, end in maps if start >= begin)
                     - begin for begin in begins
                     if any(start >= begin for start, _ in maps)]
    traced_s = sum(walls)
    busy_s = cpu_children if workers else cpu_self
    attributed = tracer.attributed_s()
    return {
        "sim.engine.events": events,
        "sim.engine.self_s": layers.get("sim.engine", 0.0),
        "sim.engine.ns_per_event": (
            as_usec(layers.get("sim.engine", 0.0) / events) * NS_PER_US
            if events else 0.0),
        "sim.events.schedules": calls("sim.events:schedule"),
        "sim.events.self_s": layers.get("sim.events", 0.0),
        "sim.network.actions": calls("sim.network:action"),
        "sim.network.self_s": layers.get("sim.network", 0.0),
        "sim.nfinstance.actions": calls("sim.nfinstance:action"),
        "sim.nfinstance.accepts": accepts,
        "sim.nfinstance.drop_frac": (
            counted("sim.nfinstance.drops") / accepts if accepts else 0.0),
        "sim.nfinstance.self_s": layers.get("sim.nfinstance", 0.0),
        "sim.faults.actions": calls("sim.faults:action"),
        "sim.faults.self_s": layers.get("sim.faults", 0.0),
        "devices.pcie.crossings": calls("devices.pcie:crossing"),
        "devices.pcie.self_s": layers.get("devices.pcie", 0.0),
        "sim.latency.self_s": layers.get("sim.latency", 0.0),
        "telemetry.metrics.summary_s": inclusive_s(
            "telemetry.metrics:summary"),
        "traffic.packets": counted("traffic:packets.items"),
        "traffic.gen_s": inclusive_s("traffic:packets"),
        "sim.runner.prepare_s": inclusive_s("sim.runner:prepare"),
        "sim.runner.collect_s": inclusive_s("sim.runner:collect"),
        "scenario.wiring_s": inclusive_s("scenario:wiring"),
        "core.ticks": calls("core:tick"),
        "core.tick_s": inclusive_s("core:tick"),
        "core.tick_p50_us": as_usec(tail_s("core:tick", 50.0)),
        "core.tick_p90_us": as_usec(tail_s("core:tick", 90.0)),
        "migration.attempts": calls("migration:attempt"),
        "migration.self_s": layers.get("migration", 0.0),
        "soak.invariants.self_s": layers.get("soak.invariants", 0.0),
        "soak.invariants.events_checked": counted(
            "soak.invariants.events_checked"),
        "checkpoint.journal.appends": calls("checkpoint.journal:append"),
        "checkpoint.journal.append_s": inclusive_s(
            "checkpoint.journal:append"),
        "checkpoint.journal.append_p50_us": as_usec(tail_s(
            "checkpoint.journal:append", 50.0)),
        "checkpoint.journal.append_p90_us": as_usec(tail_s(
            "checkpoint.journal:append", 90.0)),
        "checkpoint.journal.bytes": journal_bytes,
        "exec.run_request_p50_ms": as_msec(tail_s("exec:run_request", 50.0)),
        "exec.run_request_p90_ms": as_msec(tail_s("exec:run_request", 90.0)),
        "exec.first_result_s": (statistics.median(first_results)
                                if first_results else 0.0),
        "exec.parent_cpu_s": cpu_self / passes,
        "exec.worker_cpu_s": cpu_children / passes,
        "exec.worker_busy_frac": busy_s / (max(workers, 1) * traced_s),
        "trace.wall_s": traced_s / passes,
        "trace.attributed_s": attributed / passes,
        "trace.unattributed_s": (traced_s - attributed) / passes,
        "trace.overhead": traced_s / passes / untraced_s,
    }


def write_trace(name: str, seed: int, tracer, dumps: List[dict]) -> None:
    """Keep the traced pass's spans for inspection after the run."""
    path = WORK / f"trace-{name}-{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"stats": tracer.stats, "records": tracer.records,
                   "workers": dumps}, handle)


def run_workload(args: argparse.Namespace) -> int:
    """One contract run of one workload; prints detail and result."""
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    try:
        if args.trace:
            metrics, detail = traced_run(workload, args.seed, args.seconds,
                                         scratch)
            units = PER_LAYER
        else:
            metrics, detail = measured_run(workload, args.seed,
                                           args.seconds, scratch)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct = not detail["errors"] and detail["failed"] == 0
    for error in detail["errors"]:
        print(f"gate failed: {error}", file=sys.stderr)
    print("detail " + json.dumps({"workload": workload.name,
                                  "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": correct, "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


# -- every workload, fresh processes ---------------------------------------


def child(name: str, seed: int, seconds: float, trace: int):
    """Run one workload in a fresh process; (detail, result) or None."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        return None
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    """Every workload :data:`REPS` times round-robin, then the traces."""
    import workloads

    names = list(workloads.WORKLOADS)
    runs: Dict[str, list] = {name: [] for name in names}
    failures: List[str] = []
    for rep in range(REPS):
        for name in names:
            outcome = child(name, args.seed, args.seconds, 0)
            if outcome is None:
                failures.append(f"{name} rep {rep}: no result")
                continue
            runs[name].append(outcome)
            if not outcome[1]["correct"]:
                failures.append(f"{name} rep {rep}: gates failed")
    print(f"seed {args.seed}, {REPS} fresh-process runs per workload, "
          f"round-robin; median [min, max]")
    for name in names:
        for metric, unit in END_TO_END.items():
            values = [result["metrics"][metric]["value"]
                      for _, result in runs[name]]
            if values:
                print(f"  {name:<15} {metric:<12} "
                      f"{statistics.median(values):>14.6g} "
                      f"[{min(values):.6g}, {max(values):.6g}] {unit} "
                      f"(n={len(values)})")
    digests = {detail["digest"] for name in ("chaos-journal", "chaos-parallel")
               for detail, _ in runs[name]}
    if len(digests) != 1:
        failures.append(f"chaos-journal and chaos-parallel digests differ: "
                        f"{sorted(digests)}")
    if args.trace:
        for name in names:
            outcome = child(name, args.seed,
                            max(args.seconds, TRACE_SECONDS), 1)
            if outcome is None:
                failures.append(f"{name} traced: no result")
                continue
            detail, result = outcome
            if not result["correct"]:
                failures.append(f"{name} traced: gates failed")
            print(f"\n{name}: {detail['passes'] - 1} traced passes, per "
                  f"pass (tracing overhead "
                  f"{result['metrics']['trace.overhead']['value']:.2f}x)")
            wall = result["metrics"]["trace.wall_s"]["value"]
            for layer, self_s in detail["layers_s"].items():
                print(f"  self {layer:<20} {self_s:9.3f} s "
                      f"{self_s / wall:6.1%}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:<34} {entry['value']:>14.6g} "
                      f"{entry['unit']}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print("all gates passed" if not failures else
          f"{len(failures)} gate failure(s)")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, check the checkout, dispatch."""
    parser = argparse.ArgumentParser(
        description="Campaign benchmark: end-to-end and per-layer metrics.")
    parser.add_argument("--workload", help="run one workload (contract "
                        "mode); default: every workload, 3 times")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="measure passes for this long (at least one)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics instead")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.workload is not None:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
