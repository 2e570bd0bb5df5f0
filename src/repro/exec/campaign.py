"""Campaigns: a spec expanded into run requests, merged by index.

A :class:`Campaign` is the middle layer between a scenario (one unit of
work) and an executor (how units are dispatched):

* it expands its spec into an **ordered** list of :class:`RunRequest`\\ s
  (the policy/seed/load grid);
* it turns one request into one **JSON-clean payload**
  (:meth:`Campaign.run_request`) — build the scenario, ``prepare``,
  ``run``, ``collect``, serialise;
* it owns the campaign's **identity** (:meth:`Campaign.fingerprint`,
  validated against a journal on resume) and its **spec**
  (:meth:`Campaign.spec`), a JSON-clean description from which
  :meth:`Campaign.from_spec` rebuilds an equivalent campaign — which is
  how worker processes construct scenarios on their side of the fork
  instead of receiving pickled engines (lint rule ``DET106``).

A kind's spec is its frozen-dataclass fields: :func:`spec_to_json` and
:func:`spec_from_json` map them to and from JSON, and the base class
derives ``spec``/``from_spec``/``fingerprint`` and the seeded grid from
them, so a new spec field is one line in the dataclass.

Payloads, specs, and requests are plain JSON values end to end: the
only things that ever cross a process boundary are strings, numbers,
lists, and dicts.
"""

from __future__ import annotations

import types
from dataclasses import dataclass, field, fields, is_dataclass
from typing import (Any, Dict, List, Optional, Type, TypeVar, Union,
                    get_args, get_origin, get_type_hints)

from ..errors import ConfigurationError, ExecutionError
from .scenario import seed_for

_Spec = TypeVar("_Spec")


def spec_to_json(value: Any) -> Any:
    """A spec value as JSON: dataclasses become dicts of their fields
    and tuples become lists, recursively; everything else is kept."""
    if is_dataclass(value) and not isinstance(value, type):
        return {item.name: spec_to_json(getattr(value, item.name))
                for item in fields(value)}
    if isinstance(value, (list, tuple)):
        return [spec_to_json(item) for item in value]
    return value


def spec_from_json(cls: Type[_Spec], data: Dict[str, Any]) -> _Spec:
    """Inverse of :func:`spec_to_json` for the dataclass ``cls``.

    Decodes each field by its annotation (nested dataclasses,
    ``Optional``, tuples) and builds ``cls`` through its constructor,
    so the kind's own validation runs; a missing field takes its
    default and an unknown one is refused.
    """
    hints = get_type_hints(cls)
    known = {item.name for item in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__} spec has unknown field(s) {unknown}")
    return cls(**{name: _decode(hints[name], value)
                  for name, value in data.items()})


def _decode(hint: Any, value: Any) -> Any:
    if value is None:
        return None
    origin = get_origin(hint)
    if origin in (Union, types.UnionType):
        inner, = [arg for arg in get_args(hint) if arg is not type(None)]
        return _decode(inner, value)
    if origin is tuple:
        item_hint = get_args(hint)[0]
        return tuple(_decode(item_hint, item) for item in value)
    if is_dataclass(hint):
        return spec_from_json(hint, value)
    return value


@dataclass(frozen=True)
class RunRequest:
    """One cell of a campaign's grid, ready to dispatch."""

    #: Position in the campaign's merged result list.  Merging is by
    #: index, so completion order never changes a report.
    index: int
    #: Per-run seed (``seed_for(campaign_seed, index)`` for seeded
    #: campaigns; 0 for grids whose cells carry no randomness).
    seed: int = 0
    #: Grid coordinates beyond the seed (packet size, config path, ...).
    params: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean form (what crosses the process boundary)."""
        return {"index": self.index, "seed": self.seed,
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRequest":
        """Inverse of :meth:`to_dict`."""
        return cls(index=int(data["index"]), seed=int(data["seed"]),
                   params=dict(data["params"]))


class Campaign:
    """Base class every campaign type implements.

    A kind is a frozen dataclass whose fields are its spec; the base
    derives :meth:`spec`, :meth:`from_spec`, :meth:`fingerprint` and
    the seeded :meth:`requests` grid (for kinds with ``runs`` and
    ``seed`` fields) from them.  Subclasses set
    :attr:`kind`, implement :meth:`run_request`, and override the rest
    only where their identity is not a plain dump of their fields;
    :func:`register_campaign` makes the kind buildable by name so
    parallel workers can rebuild the campaign from its spec.
    """

    #: Registry name; also written into journal ``campaign-start``
    #: records so a journal names the campaign type that wrote it.
    kind: str = ""
    #: One line for ``python -m repro campaigns --list-kinds``.
    description: str = ""

    def fingerprint(self) -> Dict[str, object]:
        """Campaign identity for journal-resume validation.

        Resuming a journal whose fingerprint differs would silently
        splice incompatible runs into one report, so the driver refuses.
        Defaults to the spec.
        """
        return self.spec()

    def spec(self) -> Dict[str, object]:
        """JSON-clean description sufficient to rebuild this campaign:
        its dataclass fields, through :func:`spec_to_json`."""
        return spec_to_json(self)

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "Campaign":
        """Rebuild an equivalent campaign from :meth:`spec` output."""
        return spec_from_json(cls, spec)

    def requests(self) -> List[RunRequest]:
        """The ordered grid expansion (index 0..n-1, no gaps): run ``i``
        of ``runs`` at ``seed_for(seed, i)``."""
        return [RunRequest(index=index, seed=seed_for(self.seed, index))
                for index in range(self.runs)]

    def run_request(self, request: RunRequest) -> Dict[str, object]:
        """Execute one request and return its JSON-clean payload."""
        raise NotImplementedError

    def error_payload(self, request: RunRequest, error: str,
                      details: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
        """Payload standing in for a run whose worker crashed.

        The default preserves serial semantics — an unexpected failure
        propagates — while campaigns with a violation vocabulary (chaos,
        resilience) override it to record the crash as a
        ``scenario-error`` result instead of killing the campaign.
        ``details`` optionally carries the structured exception payload
        (:func:`repro.exec.errinfo.exception_payload`) the worker
        captured at the original raise site; overrides should attach it
        to the violation's ``data`` field.
        """
        raise ExecutionError(
            f"run {request.index} (seed {request.seed}) failed: {error}")

    def end_record(self, payloads: List[Dict[str, object]]
                   ) -> Dict[str, object]:
        """Extra fields for the journal's ``campaign-end`` record."""
        return {"runs": len(payloads)}


class InvariantCampaign(Campaign):
    """A campaign whose every payload lists its invariant
    ``violations`` (chaos, soak, resilience, reliability)."""

    def end_record(self, payloads: List[Dict[str, object]]
                   ) -> Dict[str, object]:
        """The run count and the violations summed over the runs."""
        return {"runs": len(payloads),
                "violations": sum(len(payload["violations"])
                                  for payload in payloads)}


_REGISTRY: Dict[str, Type[Campaign]] = {}


def register_campaign(campaign_type: Type[Campaign]) -> Type[Campaign]:
    """Register a campaign type under its :attr:`Campaign.kind`.

    Usable as a class decorator.  Re-registering the same class is a
    no-op; registering a different class under a taken kind is a
    programming error and raises.
    """
    kind = campaign_type.kind
    if not kind:
        raise ConfigurationError(
            f"{campaign_type.__name__} has no campaign kind")
    existing = _REGISTRY.get(kind)
    if existing is not None and existing is not campaign_type:
        raise ConfigurationError(
            f"campaign kind {kind!r} already registered "
            f"to {existing.__name__}")
    _REGISTRY[kind] = campaign_type
    return campaign_type


def _ensure_builtin_campaigns() -> None:
    """Import the modules that register the built-in campaign kinds.

    Needed when a worker process starts from a fresh interpreter (spawn
    start method): registration happens at import time, so the modules
    must be imported before :func:`build_campaign` can resolve a kind.
    Imports are local to keep the layering acyclic (those modules import
    :mod:`repro.exec` at module level).
    """
    from ..chaos.runner import ChaosCampaign  # noqa: F401
    from ..harness.sweep import SizeSweepCampaign  # noqa: F401
    from ..reliability.campaign import ReliabilityCampaign  # noqa: F401
    from ..resilience.campaign import ResilienceCampaign  # noqa: F401
    from ..soak.campaign import SoakCampaign  # noqa: F401
    from .faultinject import FaultInjectedCampaign  # noqa: F401


def campaign_kinds() -> Dict[str, str]:
    """Every registered campaign kind with its one-line description.

    Backs ``python -m repro campaigns --list-kinds`` and the
    unknown-kind error messages; importing the built-ins first so the
    listing is complete regardless of what the caller already loaded.
    """
    _ensure_builtin_campaigns()
    return {kind: campaign_type.description
            for kind, campaign_type in sorted(_REGISTRY.items())}


def build_campaign(kind: str, spec: Dict[str, object]) -> Campaign:
    """Rebuild a campaign of ``kind`` from its JSON-clean spec."""
    if kind not in _REGISTRY:
        _ensure_builtin_campaigns()
    try:
        campaign_type = _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown campaign kind {kind!r} (known: {known})") from None
    return campaign_type.from_spec(spec)
