"""Load monitor: records device utilisation and offered load each tick.

Install as (or alongside) a controller to get utilisation traces out of
a run.  :class:`LoadMonitor` can wrap an inner controller so a single
monitor-period drives both observation and the migration policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .recorder import TimeSeriesRecorder

if TYPE_CHECKING:  # avoid a circular import: sim.runner uses telemetry.metrics
    from ..sim.runner import Controller, TickContext

SERIES_NIC = "nic_utilisation"
SERIES_CPU = "cpu_utilisation"
SERIES_OFFERED = "offered_bps"
SERIES_TELEMETRY_AGE = "telemetry_age_s"


class LoadMonitor:
    """Records load series; optionally chains to an inner controller."""

    def __init__(self, inner: Optional["Controller"] = None,
                 recorder: Optional[TimeSeriesRecorder] = None) -> None:
        self.inner = inner
        self.recorder = recorder or TimeSeriesRecorder()

    def on_tick(self, context: "TickContext") -> None:
        """Sample both devices, then delegate to the inner controller."""
        self.recorder.record(SERIES_NIC, context.now_s,
                             context.load.nic_load().utilisation)
        self.recorder.record(SERIES_CPU, context.now_s,
                             context.load.cpu_load().utilisation)
        self.recorder.record(SERIES_OFFERED, context.now_s,
                             context.offered_bps)
        self.recorder.record(SERIES_TELEMETRY_AGE, context.now_s,
                             context.telemetry_age_s)
        if self.inner is not None:
            self.inner.on_tick(context)

    @property
    def migrations(self):
        """Expose the inner controller's migration records, if any."""
        return getattr(self.inner, "migrations", [])
