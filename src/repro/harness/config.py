"""Declarative experiment configuration (JSON / dict driven).

Lets operators describe a full experiment — chain, placement, hardware,
workload, policy — as data, validated up front, and run it with one
call (or ``python -m repro run-config file.json``).  Example::

    {
      "name": "fig1-spike",
      "chain": [
        {"nf": "load_balancer", "device": "cpu"},
        {"nf": "logger", "device": "smartnic"},
        {"nf": "monitor", "device": "smartnic"},
        {"nf": "firewall", "device": "smartnic"}
      ],
      "egress": "cpu",
      "profiles": "figure1",
      "workload": {"kind": "cbr", "rate_gbps": 1.8,
                   "packet_bytes": 256, "duration_s": 0.01},
      "policy": "pam"
    }

Every field is validated with a path-qualified error message, so a typo
in a 50-line config points at the exact key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from ..baselines.naive import NaivePolicy
from ..baselines.noop import NoopPolicy
from ..baselines.random_policy import RandomPolicy
from ..chain.catalog import EXTENDED, FIGURE1_SCENARIO, TABLE1
from ..chain.builder import ChainBuilder
from ..chain.nf import DeviceKind
from ..core.planner import MigrationController, PAMPolicy
from ..devices.server import ServerProfile
from ..errors import ConfigurationError
from ..sim.runner import SimulationResult, SimulationRunner
from ..traffic.generators import (ConstantBitRate, OnOffBursts,
                                  PoissonArrivals)
from ..traffic.packet import FixedSize, IMixSize, UniformSize
from ..traffic.patterns import ProfiledArrivals, spike
from ..units import gbps, usec

PROFILE_SETS = {
    "table1": TABLE1,
    "figure1": FIGURE1_SCENARIO,
    "extended": EXTENDED,
}

_DEVICES = {"smartnic": DeviceKind.SMARTNIC, "cpu": DeviceKind.CPU}

_POLICIES = {
    "pam": PAMPolicy,
    "naive": NaivePolicy,
    "noop": NoopPolicy,
    "random": RandomPolicy,
}


def _require(mapping: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigurationError(f"{path}: missing required key {key!r}")
    return mapping[key]


def _device(value: str, path: str) -> DeviceKind:
    try:
        return _DEVICES[value]
    except KeyError:
        raise ConfigurationError(
            f"{path}: unknown device {value!r} "
            f"(choose from {sorted(_DEVICES)})") from None


def _size_dist(spec: Any, path: str):
    if isinstance(spec, int):
        return FixedSize(spec)
    if spec == "imix":
        return IMixSize()
    if isinstance(spec, Mapping) and spec.get("kind") == "uniform":
        return UniformSize(_require(spec, "lo", path),
                           _require(spec, "hi", path))
    raise ConfigurationError(
        f"{path}: packet_bytes must be an int, 'imix', or a uniform spec")


def _workload(spec: Mapping[str, Any], path: str):
    kind = _require(spec, "kind", path)
    duration = float(_require(spec, "duration_s", path))
    sizes = _size_dist(_require(spec, "packet_bytes", path),
                       f"{path}.packet_bytes")
    seed = int(spec.get("seed", 1))
    if kind == "cbr":
        return ConstantBitRate(gbps(float(_require(spec, "rate_gbps", path))),
                               sizes, duration, seed)
    if kind == "poisson":
        return PoissonArrivals(gbps(float(_require(spec, "rate_gbps", path))),
                               sizes, duration, seed)
    if kind == "onoff":
        return OnOffBursts(
            low_bps=gbps(float(_require(spec, "low_gbps", path))),
            high_bps=gbps(float(_require(spec, "high_gbps", path))),
            size_dist=sizes, duration_s=duration,
            mean_dwell_s=float(spec.get("mean_dwell_s", 0.05)), seed=seed)
    if kind == "spike":
        profile = spike(
            base_bps=gbps(float(_require(spec, "base_gbps", path))),
            peak_bps=gbps(float(_require(spec, "peak_gbps", path))),
            start_s=float(_require(spec, "start_s", path)),
            duration_s=float(spec.get("spike_duration_s", duration)))
        return ProfiledArrivals(profile, sizes, duration, seed,
                                jitter=bool(spec.get("jitter", False)))
    raise ConfigurationError(
        f"{path}.kind: unknown workload {kind!r} "
        "(cbr, poisson, onoff, spike)")


@dataclass
class ExperimentSpec:
    """A fully validated, runnable experiment description."""

    name: str
    runner: SimulationRunner
    policy_name: str

    def run(self) -> SimulationResult:
        """Execute the experiment."""
        return self.runner.run()


def parse(config: Mapping[str, Any]) -> ExperimentSpec:
    """Validate a config dict and build the runnable experiment."""
    if not isinstance(config, Mapping):
        raise ConfigurationError("config must be a JSON object")
    name = str(config.get("name", "experiment"))

    profiles_key = str(config.get("profiles", "figure1"))
    try:
        profiles = PROFILE_SETS[profiles_key]
    except KeyError:
        raise ConfigurationError(
            f"profiles: unknown set {profiles_key!r} "
            f"(choose from {sorted(PROFILE_SETS)})") from None

    chain_spec = _require(config, "chain", "config")
    if not isinstance(chain_spec, list) or not chain_spec:
        raise ConfigurationError("chain: must be a non-empty list")
    builder = ChainBuilder(name, profiles=profiles)
    for index, hop in enumerate(chain_spec):
        path = f"chain[{index}]"
        if not isinstance(hop, Mapping):
            raise ConfigurationError(f"{path}: must be an object")
        builder.add(_require(hop, "nf", path),
                    _device(_require(hop, "device", path), path),
                    rename=hop.get("rename"))
    ingress = _device(str(config.get("ingress", "smartnic")), "ingress")
    egress = _device(str(config.get("egress", "smartnic")), "egress")
    __, placement = builder.build(ingress=ingress, egress=egress)

    workload = _workload(_require(config, "workload", "config"), "workload")

    policy_name = str(config.get("policy", "noop"))
    try:
        policy = _POLICIES[policy_name]()
    except KeyError:
        raise ConfigurationError(
            f"policy: unknown policy {policy_name!r} "
            f"(choose from {sorted(_POLICIES)})") from None
    controller = None if policy_name == "noop" \
        else MigrationController(policy)

    server_spec = config.get("server", {})
    if not isinstance(server_spec, Mapping):
        raise ConfigurationError("server: must be an object")
    profile = ServerProfile(
        name=name,
        pcie_crossing_latency_s=usec(float(
            server_spec.get("pcie_crossing_us", 14.0))),
        pcie_model_contention=bool(
            server_spec.get("pcie_contention", False)))
    server = profile.build()
    server.install(placement)

    runner = SimulationRunner(
        server, workload, controller,
        monitor_period_s=float(config.get("monitor_period_s", 0.002)))
    return ExperimentSpec(name=name, runner=runner,
                          policy_name=policy_name)


def load(path: Union[str, Path]) -> ExperimentSpec:
    """Parse an experiment config from a JSON file."""
    try:
        config = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
    return parse(config)
