"""Canned resilience scenarios: the acceptance stories as soak cases.

Two stories the paper cannot tell:

* **device-kill** — the Figure 1 chain rides a traffic spike when the
  SmartNIC dies outright mid-spike.  The health tracker declares the
  device failed, the recovery planner evacuates every NIC NF onto the
  CPU through the fault-tolerant executor, and the degradation ladder
  sheds whatever the survivor cannot carry until the spike passes.
* **overload** — offered load exceeds what *any* placement of the
  chain can sustain (no SmartNIC failure needed).  Push-aside alone
  cannot help; the ladder sheds exactly the low-priority class and the
  PAM loop then finds a feasible placement for the admitted load.

Each story is a :class:`~repro.soak.fuzzer.SoakCase`, so it runs
through the one scenario wiring
(:func:`repro.soak.scenario.build_case_scenario`) with the online
invariant engine watching, and replays with ``python -m repro soak
--replay``.  Both are seeded and fully deterministic — same seed, same
packets shed, same recovery timeline — which is what lets the CLI, the
tests, and ``bench_resilience`` share them.
"""

from __future__ import annotations

from typing import Optional

from ..chain.nf import DeviceKind
from ..chaos.schedule import ChaosFault
from ..errors import ConfigurationError
from ..soak.fuzzer import SoakCase
from ..units import gbps

_PACKET_BYTES = 512

#: Offered load no placement the planner can navigate to carries (the
#: best border-move split sustains 2.0 Gbps; see
#: recovery.reachable_capacity_bps).
INFEASIBLE_LOAD_BPS = gbps(2.2)


def _check_duration(duration_s: float) -> None:
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")


def device_kill_case(seed: int = 7, duration_s: float = 0.08) -> SoakCase:
    """Kill the SmartNIC mid-spike; recover onto the CPU."""
    _check_duration(duration_s)
    return SoakCase(
        seed=seed, duration_s=duration_s, packet_bytes=_PACKET_BYTES,
        base_bps=gbps(1.0), peak_bps=gbps(1.8), resilient=True,
        migration_failure_rate=0.0,
        faults=(ChaosFault(kind="device-kill", at_s=0.3 * duration_s,
                           duration_s=0.0, device=DeviceKind.SMARTNIC),))


def overload_case(seed: int = 7, duration_s: float = 0.06) -> SoakCase:
    """Sustained load beyond every placement; shed low priority only."""
    _check_duration(duration_s)
    return SoakCase(
        seed=seed, duration_s=duration_s, packet_bytes=_PACKET_BYTES,
        base_bps=INFEASIBLE_LOAD_BPS, peak_bps=INFEASIBLE_LOAD_BPS,
        resilient=True, migration_failure_rate=0.0)


SCENARIOS = {
    "device-kill": device_kill_case,
    "overload": overload_case,
}


def scenario_case(name: str, seed: int = 7,
                  duration_s: Optional[float] = None) -> SoakCase:
    """The named scenario's case (its default duration if unset)."""
    try:
        build = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(
            f"unknown resilience scenario {name!r} (known: {known})") \
            from None
    if duration_s is None:
        return build(seed=seed)
    return build(seed=seed, duration_s=duration_s)
