"""Robustness R2: failure-domain recovery and graceful degradation.

Runs the two canned resilience scenarios end to end and reports the
headline numbers the resilience layer exists to bound:

* **device-kill** — time-to-recover (watchdog detection to the last NF
  re-hosted on the survivor), the detection timeline, and what was shed
  while the chain ran degraded;
* **overload** — the per-class shed breakdown under sustained
  infeasible load, pinned to the property that only the low-priority
  class pays while protected traffic rides through untouched.

Both scenarios are seeded and deterministic, so the printed numbers are
reproducible artifacts, not samples.
"""

from conftest import report
from repro.resilience.campaign import run_outcome
from repro.resilience.scenarios import device_kill_case, overload_case
from repro.units import as_msec

SEED = 7


def _class_rows(outcome):
    lines = [f"{'class':<10} {'offered':>8} {'shed':>8} {'fraction':>9}"]
    for cls in outcome["classes"]:
        tag = "" if cls["sheddable"] else "  [protected]"
        lines.append(f"{cls['name']:<10} {cls['offered_packets']:>8} "
                     f"{cls['shed_packets']:>8} {cls['shed_fraction']:>8.1%}"
                     f"{tag}")
    return "\n".join(lines)


def test_device_kill_recovery(benchmark):
    results = []

    def run():
        results.clear()
        results.append(run_outcome(device_kill_case(seed=SEED)))

    benchmark.pedantic(run, rounds=1, iterations=1)
    outcome = results[0]

    timeline = "\n".join(
        f"{as_msec(t['at_s']):7.2f}ms  {t['entity']:<18} "
        f"{t['previous']} -> {t['state']}"
        for t in outcome["transitions"])
    recovery = outcome["recoveries"][0]
    body = (
        f"detection timeline:\n{timeline}\n"
        f"recovery of {recovery['device']}: {recovery['status']} in "
        f"{recovery['attempts']} attempt(s), evacuated "
        f"[{', '.join(recovery['evacuated'])}]\n"
        f"time-to-recover: {as_msec(outcome['downtime_s']):.3f}ms\n"
        f"degraded for {as_msec(outcome['degraded_time_s']):.2f}ms; "
        f"shed {outcome['shed']} packets "
        f"({outcome['shed_fraction']:.1%}), protected shed "
        f"{outcome['protected_shed_packets']}, abandoned "
        f"{outcome['abandoned_packets']}\n"
        f"delivered {outcome['delivered']}/{outcome['injected']} "
        f"(dropped {outcome['dropped']})\n\n{_class_rows(outcome)}")
    report(f"Device-kill recovery (seed {SEED})", body)

    assert outcome["violations"] == []
    assert recovery["status"] == "completed"
    assert outcome["downtime_s"] is not None
    assert outcome["protected_shed_packets"] == 0


def test_overload_degradation(benchmark):
    results = []

    def run():
        results.clear()
        results.append(run_outcome(overload_case(seed=SEED)))

    benchmark.pedantic(run, rounds=1, iterations=1)
    outcome = results[0]

    ladder = " -> ".join(f"L{level}@{as_msec(at):.1f}ms"
                         for at, level in outcome["level_changes"])
    body = (
        f"ladder decisions: {ladder or '(never engaged)'}\n"
        f"degraded for {as_msec(outcome['degraded_time_s']):.2f}ms "
        f"(final level {outcome['final_ladder_level']})\n"
        f"shed {outcome['shed']} packets "
        f"({outcome['shed_fraction']:.1%} of offered)\n"
        f"final placement: {outcome['final_placement']}\n\n"
        f"{_class_rows(outcome)}")
    report(f"Overload degradation (seed {SEED})", body)

    assert outcome["violations"] == []
    by_name = {cls["name"]: cls for cls in outcome["classes"]}
    assert by_name["low"]["shed_packets"] > 0
    assert by_name["normal"]["shed_packets"] == 0
    assert outcome["protected_shed_packets"] == 0
