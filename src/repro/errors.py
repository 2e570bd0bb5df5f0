"""Exception hierarchy for the PAM reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from runtime conditions such
as the scale-out fallback the paper describes for joint overload.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A chain, placement, device, or workload was configured inconsistently.

    Raised eagerly at construction/validation time, never mid-simulation,
    so a simulation that starts running has a self-consistent setup.
    """


class UnknownNFError(ConfigurationError):
    """An NF name was referenced that the catalog or chain does not contain."""


class CapacityError(ConfigurationError):
    """A capacity table is missing an entry or holds a non-positive value."""


class PlacementError(ConfigurationError):
    """A placement maps an NF to a device that cannot host it, or omits an NF."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an internal inconsistency."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or after the engine horizon."""


class MigrationError(ReproError):
    """A migration plan could not be applied to the running system."""


class InfeasiblePlanError(MigrationError):
    """The selection algorithm produced a plan that violates its constraints.

    This indicates a library bug (the Eq. 2 / Eq. 3 checks in
    :func:`repro.core.pam.push_aside` should prevent it) and is surfaced
    loudly rather than silently ignored.
    """


class ExecutionError(ReproError):
    """A campaign run failed in an executor worker and the campaign has
    no way to record the failure as a result (no violation vocabulary),
    so the crash propagates — the same thing the serial loop would do.
    """


class CampaignAborted(ExecutionError):
    """A campaign's supervision abort budget was blown.

    Raised by :func:`repro.exec.run_campaign` when more runs have been
    quarantined than the :class:`~repro.exec.SupervisionPolicy`'s
    ``max_failures`` allows: the grid is considered poisoned (broken
    build, bad config, sick host) and finishing it would only journal
    more garbage.  The journal gets a ``campaign-abort`` record first,
    so the campaign remains resumable once the cause is fixed.
    """

    def __init__(self, message: str, completed: int = 0,
                 quarantined: int = 0) -> None:
        super().__init__(message)
        self.completed = completed
        self.quarantined = quarantined


class CheckpointError(ReproError):
    """A durability artifact failed an integrity or fidelity check.

    Raised when a run journal cannot be read or holds a corrupt record
    followed by good ones (:mod:`repro.checkpoint`), when a
    ``crash-resume`` check names an unknown campaign or its killed run
    left no journal, or when a soak reproducer file is unreadable or
    malformed — anything where continuing would silently produce a
    result that is *not* the one it claims to be.
    """


class AnalysisError(ReproError):
    """A static-analysis run could not proceed (bad path, baseline, or flag).

    Raised by :mod:`repro.analysis.lint` for usage-level problems — a
    nonexistent lint target, an unreadable baseline file — as opposed to
    findings *in* the analysed code, which are reported, not raised.
    """


class ScaleOutRequired(ReproError):
    """Both SmartNIC and CPU are overloaded; no migration can help.

    The paper (S2, last paragraph) notes that when both devices are
    overloaded "the network operator must start another instance" per
    OpenNF.  PAM signals that condition with this exception so the
    operator layer (or :mod:`repro.baselines.scaleout`) can react.
    """

    def __init__(self, message: str, nic_utilisation: float = 0.0,
                 cpu_utilisation: float = 0.0) -> None:
        super().__init__(message)
        self.nic_utilisation = nic_utilisation
        self.cpu_utilisation = cpu_utilisation
