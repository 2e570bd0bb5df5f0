"""Batch experiment suites with baseline regression checking.

A *suite* is a directory of experiment configs (``*.json``, the format
of :mod:`repro.harness.config`).  :func:`run_suite` executes each one
and writes a result record next to it (``<name>.result.json``);
:func:`check_suite` re-runs everything and diffs against the committed
records with :func:`repro.harness.results.compare` — the one-call
regression gate a CI job needs:

    python -m repro suite experiments/ --check
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Union

from ..errors import ConfigurationError
from ..exec import Campaign, RunRequest, register_campaign, run_campaign
from .config import load as load_config
from .results import Mismatch, ResultRecord, compare

RESULT_SUFFIX = ".result.json"


@dataclass(frozen=True)
class SuiteEntry:
    """One executed suite member."""

    config_path: Path
    record: ResultRecord

    @property
    def result_path(self) -> Path:
        """Where this entry's baseline record lives."""
        return baseline_path(self.config_path)


@dataclass(frozen=True)
class SuiteCheck:
    """Comparison of one member against its committed baseline."""

    config_path: Path
    mismatches: Sequence[Mismatch]
    missing_baseline: bool = False

    @property
    def ok(self) -> bool:
        """Whether this member matches its baseline."""
        return not self.mismatches and not self.missing_baseline


def baseline_path(config_path: Union[str, Path]) -> Path:
    """The record path belonging to a config file."""
    config_path = Path(config_path)
    return config_path.with_name(config_path.stem + RESULT_SUFFIX)


def discover(directory: Union[str, Path]) -> List[Path]:
    """Config files in ``directory`` (excluding result records)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"{directory} is not a directory")
    configs = sorted(path for path in directory.glob("*.json")
                     if not path.name.endswith(RESULT_SUFFIX))
    if not configs:
        raise ConfigurationError(f"no experiment configs in {directory}")
    return configs


@register_campaign
class SuiteCampaign(Campaign):
    """A directory of experiment configs as a campaign grid.

    One request per discovered config file; the payload is the flat
    :class:`ResultRecord` JSON document, so records survive the process
    boundary and journal round-trips without a second format.
    """

    kind = "suite"
    description = ("config-file suite: one run per experiment config "
                   "in a directory")

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.configs = discover(self.directory)

    def fingerprint(self) -> Dict[str, object]:
        """Suite identity: the config files it would execute."""
        return {"directory": str(self.directory),
                "configs": [path.name for path in self.configs]}

    def spec(self) -> Dict[str, object]:
        """Worker-rebuildable description (the directory path)."""
        return {"directory": str(self.directory)}

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "SuiteCampaign":
        """Rebuild from :meth:`spec` (worker-side construction)."""
        return cls(str(spec["directory"]))

    def requests(self) -> List[RunRequest]:
        """One request per config, in discovery (sorted-name) order."""
        return [RunRequest(index=index, params={"config": path.name})
                for index, path in enumerate(self.configs)]

    def run_request(self, request: RunRequest) -> Dict[str, object]:
        """Execute one config and flatten its result record."""
        spec = load_config(self.configs[request.index])
        record = ResultRecord.from_result(spec.run(), label=spec.name)
        return json.loads(record.dumps())


def _record_from_payload(payload: Dict[str, object]) -> ResultRecord:
    """Rehydrate a campaign payload into a :class:`ResultRecord`."""
    return ResultRecord.loads(json.dumps(payload))


def run_suite(directory: Union[str, Path],
              write_baselines: bool = True) -> List[SuiteEntry]:
    """Execute every config; optionally (re)write the baseline records."""
    campaign = SuiteCampaign(directory)
    outcome = run_campaign(campaign)
    entries = []
    for config_path, payload in zip(campaign.configs, outcome.payloads):
        record = _record_from_payload(payload)
        if write_baselines:
            record.save(baseline_path(config_path))
        entries.append(SuiteEntry(config_path=config_path, record=record))
    return entries


def check_suite(directory: Union[str, Path],
                latency_rtol: float = 0.05,
                goodput_rtol: float = 0.05) -> List[SuiteCheck]:
    """Re-run every config and diff against committed baselines."""
    campaign = SuiteCampaign(directory)
    outcome = run_campaign(campaign)
    checks = []
    for config_path, payload in zip(campaign.configs, outcome.payloads):
        fresh = _record_from_payload(payload)
        baseline_file = baseline_path(config_path)
        if not baseline_file.exists():
            checks.append(SuiteCheck(config_path=config_path,
                                     mismatches=(),
                                     missing_baseline=True))
            continue
        baseline = ResultRecord.load(baseline_file)
        checks.append(SuiteCheck(
            config_path=config_path,
            mismatches=tuple(compare(baseline, fresh,
                                     latency_rtol=latency_rtol,
                                     goodput_rtol=goodput_rtol))))
    return checks


def render_checks(checks: Sequence[SuiteCheck]) -> str:
    """Human-readable pass/fail report for a suite check."""
    lines = []
    for check in checks:
        if check.missing_baseline:
            status = "NO BASELINE"
        elif check.ok:
            status = "ok"
        else:
            fields = ", ".join(m.field_name for m in check.mismatches)
            status = f"MISMATCH ({fields})"
        lines.append(f"{check.config_path.name:<40} {status}")
    failed = sum(1 for check in checks if not check.ok)
    lines.append(f"{len(checks)} experiments, {failed} failing")
    return "\n".join(lines)
